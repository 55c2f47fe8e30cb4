package main

import (
	"fmt"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/stats"
	"diffserve/internal/system"
	"diffserve/internal/trace"
)

const (
	benchCascade       = "cascade1"
	calibrationQueries = 2000
	// diurnalShapeSeed fixes the diurnal rate curve, as the paper
	// replays one Azure trace; the run seed drives the arrivals drawn
	// from it, the query population and the model fixtures. Under
	// seed-dependent curves some seeds put the peak beyond the 16
	// workers' capacity and shed up to 17% of queries while others shed
	// none, so the spread between seeds would swamp any change.
	diurnalShapeSeed = 20250611
)

// simWorkload replays the Azure-like diurnal trace, scaled 4 -> 32 qps,
// through the discrete-event simulator with the DiffServe MILP
// allocator on 16 workers: the paper's headline setting.
type simWorkload struct {
	duration float64 // trace seconds
}

func (w simWorkload) rep(seed uint64, t *tracer) (*repResult, error) {
	r := &repResult{seed: seed, traced: t != nil}
	gc0, pause0 := gcSample()
	start := sampleProc()
	root := t.open("rep")

	envStart := t.now()
	env, err := baselines.NewEnv(benchCascade, seed, calibrationQueries)
	if err != nil {
		return nil, err
	}
	envEnd := t.now()
	t.addChild(root, "setup.env", -1, 0, envStart, envEnd)
	raw, err := trace.AzureLike(stats.NewRNG(diurnalShapeSeed), w.duration, 1)
	if err != nil {
		return nil, err
	}
	tr, err := raw.ScaleTo(4, 32)
	if err != nil {
		return nil, err
	}
	sys, alloc, err := newSim(env, tr, t)
	if err != nil {
		return nil, err
	}
	t.addChild(root, "setup.harness", -1, 0, envEnd, t.now())

	run0 := sampleProc()
	r.setup = run0.wall.Sub(start.wall).Seconds()
	runSpan := t.open("system.run")
	res, err := sys.Run()
	t.close(runSpan, root)
	if err != nil {
		return nil, err
	}
	sumStart := t.now()
	sum := res.Collector.Summarize(res.Reference)
	t.addChild(root, "metrics.summarize", -1, 0, sumStart, t.now())
	r.charge(run0, sampleProc())
	t.close(root, -1)

	if err := checkRecords(res.Collector.Records(), 0, res.Queries); err != nil {
		return nil, err
	}
	r.outcome(res.Collector, sum, res.Queries)
	r.fingerprint = fingerprint(sum, res.Plans)
	gc1, pause1 := gcSample()
	r.gcCycles, r.gcPauseMs = gc1-gc0, float64(pause1-pause0)/1e6
	if t != nil {
		t.freeze()
		r.layers = simLayers(t, alloc, runSpan)
		r.layers["cascade.defer_ratio"] = sum.DeferRatio
		r.spans = t
	}
	return r, checkOutcome(r)
}

// newSim builds the DiffServe system on 16 workers: the MILP
// allocator under a default controller, cascade routing, and the
// arrival seed baselines.Options defaults to. Traced and untraced
// repetitions share this one construction; only the discriminator and
// the allocator are wrapped when t is set.
func newSim(env *baselines.Env, tr *trace.Trace, t *tracer) (*system.System, *allocator.MILPAllocator, error) {
	const workers = 16
	alloc, err := newAllocator(env, workers)
	if err != nil {
		return nil, nil, err
	}
	var a allocator.Allocator = alloc
	var scorer discriminator.Scorer = env.Scorer
	if t != nil {
		a, scorer = tracedAllocator{alloc, t}, tracedScorer{env.Scorer, t}
	}
	ctrl, err := controller.New(controller.Config{Alloc: a})
	if err != nil {
		return nil, nil, err
	}
	sys, err := system.New(system.Config{
		Space: env.Space, Light: env.Light, Heavy: env.Heavy, Scorer: scorer,
		Workers: workers, SLO: env.Spec.SLOSeconds,
		Trace: tr, Controller: ctrl, Mode: loadbalancer.ModeCascade,
		Seed: env.Seed + 17,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	return sys, alloc, nil
}

// newAllocator is the DiffServe MILP allocator over the env's cascade.
func newAllocator(env *baselines.Env, workers int) (*allocator.MILPAllocator, error) {
	return allocator.NewMILP(allocator.Config{
		Light: env.Light, Heavy: env.Heavy,
		DiscPerImage: env.Scorer.PerImageLatency(),
		Deferral:     env.Deferral,
		TotalWorkers: workers,
		SLO:          env.Spec.SLOSeconds,
	})
}

// simLayers derives the simulator's per-layer numbers from the spans.
func simLayers(t *tracer, alloc *allocator.MILPAllocator, runSpan int32) map[string]float64 {
	m := commonLayers(t, alloc)
	run := t.spans[runSpan]
	m["system.run_s"] = float64(run.end-run.start) / 1e9
	m["system.self_s"] = m["system.run_s"] - m["allocator.s_total"] - m["discriminator.s_total"]
	return m
}
