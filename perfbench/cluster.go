package main

import (
	"errors"

	"diffserve/internal/allocator"
	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/controller"
	"diffserve/internal/discriminator"
	"diffserve/internal/loadbalancer"
	"diffserve/internal/trace"
)

// clusterTimescale replays trace time 20x faster than real time. At 50x
// a 100 ms stall of a 2-vCPU box is 5 trace seconds, a whole SLO, and
// 3 repetitions in 100 of cluster-steady shed queries; at 20x none of
// 100 did.
const clusterTimescale = 0.05

// clusterWorkload drives a rate trace through cluster.Run over the tcp
// transport: client -> sharded frontend -> LB shard -> light worker ->
// discriminator -> deferral -> heavy worker -> result. Arrivals are
// open loop: the harness's submitter follows the trace schedule
// whatever the completions.
type clusterWorkload struct {
	rates     []float64 // qps per interval
	interval  float64   // trace seconds per rate
	workers   int
	shards    int
	vnodes    int
	steal     bool
	autoscale *cluster.AutoscaleConfig
}

func (w clusterWorkload) rep(seed uint64, t *tracer) (*repResult, error) {
	r := &repResult{seed: seed, traced: t != nil}
	gc0, pause0 := gcSample()
	start := sampleProc()
	root := t.open("rep")

	envStart := t.now()
	env, err := baselines.NewEnv(benchCascade, seed, calibrationQueries)
	if err != nil {
		return nil, err
	}
	t.addChild(root, "setup.env", -1, 0, envStart, t.now())
	tr, err := trace.New(w.interval, w.rates)
	if err != nil {
		return nil, err
	}
	alloc, err := newAllocator(env, w.workers)
	if err != nil {
		return nil, err
	}
	var a allocator.Allocator = alloc
	var scorer discriminator.Scorer = env.Scorer
	if t != nil {
		a, scorer = tracedAllocator{alloc, t}, tracedScorer{env.Scorer, t}
		t.wire = newWireLog(clusterTimescale)
	}
	ctrl, err := controller.New(controller.Config{Alloc: a})
	if err != nil {
		return nil, err
	}
	inner, err := cluster.NewTransport(cluster.TransportTCP)
	if err != nil {
		return nil, err
	}
	tp := newProbeTransport(inner, t)

	harnessStart := t.now()
	res, err := cluster.Run(cluster.HarnessConfig{
		Space: env.Space, Light: env.Light, Heavy: env.Heavy, Scorer: scorer,
		Mode: loadbalancer.ModeCascade, Workers: w.workers, SLO: env.Spec.SLOSeconds,
		Trace: tr, Ctrl: ctrl, Timescale: clusterTimescale, Seed: seed,
		TransportImpl: tp,
		LBShards:      w.shards, RingVNodes: w.vnodes,
		Steal: w.steal, Autoscale: w.autoscale,
		// As in every other harness caller. With model-load delays on,
		// these runs deferred no query at all and shed about 1%.
		DisableLoadDelay: true,
	})
	if err != nil {
		return nil, err
	}
	first := tp.first.Load()
	if first == nil {
		return nil, errors.New("cluster: no query was submitted")
	}
	// Set-up ends when the first query is due. The submitter idles from
	// the trace clock's start until that arrival, which is exponential
	// in the seed (12.5 ms on average at 4 qps, an eighth of set-up), so
	// the idle time is taken out.
	idle := first.arrival * clusterTimescale
	t.addChild(root, "setup.harness", -1, 0, harnessStart, first.ns-int64(idle*1e9))
	sumStart := t.now()
	sum := res.Summary()
	t.addChild(root, "metrics.summarize", -1, 0, sumStart, t.now())
	r.setup = first.proc.wall.Sub(start.wall).Seconds() - idle
	r.charge(first.proc, sampleProc())
	t.close(root, -1)

	if err := checkRecords(res.Collector.Records(), 0, res.Queries); err != nil {
		return nil, err
	}
	if err := tp.results.check(res.Queries); err != nil {
		return nil, err
	}
	r.outcome(res.Collector, sum, res.Queries)
	gc1, pause1 := gcSample()
	r.gcCycles, r.gcPauseMs = gc1-gc0, float64(pause1-pause0)/1e6
	if t != nil {
		// cluster.Run does not wait for its worker and control loops,
		// which may still call the wrappers; freezing the tracer drops
		// their spans. The stage split adds its query spans first.
		stages := t.wire.stageSplit(t, root)
		t.freeze()
		m := commonLayers(t, alloc)
		for k, v := range wireLayers(t) {
			m[k] = v
		}
		for k, v := range stages {
			m[k] = v
		}
		m["cascade.defer_ratio"] = sum.DeferRatio
		m["shard.reshards"] = float64(t.wire.reshards())
		m["shard.peak"] = float64(res.PeakLBShards)
		m["shard.final"] = float64(res.FinalLBShards)
		m["shard.live_epochs"] = float64(res.LiveEpochs)
		r.layers = m
		r.spans = t
	}
	return r, checkOutcome(r)
}
