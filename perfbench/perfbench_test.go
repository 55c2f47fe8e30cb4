package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"diffserve/internal/baselines"
	"diffserve/internal/cluster"
	"diffserve/internal/controller"
	"diffserve/internal/stats"
	"diffserve/internal/trace"
)

// The wrappers must keep the capabilities the runtime type-asserts, or
// the traced run would take other code paths than the untraced one.
var (
	_ cluster.ReusingLBConn    = (*probeConn)(nil)
	_ cluster.MembershipSource = (*probeConn)(nil)
	_ controller.SolverStatser = tracedAllocator{}
	_ cluster.Transport        = (*probeTransport)(nil)
)

// TestWorkloadsEmitEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks the gate passes and every metric is
// reported once, with its unit, as a finite number.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for name, w := range workloads(0.05) {
		for _, traced := range []bool{false, true} {
			reps, err := run(w, 7, 0, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := summarize(reps, traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", name, traced, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", name, traced, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", name, traced, d.name, m.Value)
				}
			}
		}
	}
}

// TestMetricsMatchBenchmarkFile keeps the metric lists in step with
// BENCHMARK.json, which the runs are judged by.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code %d", len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	ws := workloads(1)
	if len(spec.Workloads) != len(ws) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(ws))
	}
	for _, w := range spec.Workloads {
		if ws[w.Name] == nil {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
}

// TestSimIsDeterministic runs the simulator twice on one seed; the run
// loop itself compares the traced repetition with the untraced one.
func TestSimIsDeterministic(t *testing.T) {
	w := workloads(0.05)["sim-diurnal"]
	a, err := w.rep(11, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.rep(11, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint != b.fingerprint {
		t.Errorf("same seed, different outcomes:\n%s\n%s", a.fingerprint, b.fingerprint)
	}
}

// TestGateCatchesMiscounts feeds the exactly-once gates a real run's
// records and results, then the same with one ID counted twice and
// with one ID missing.
func TestGateCatchesMiscounts(t *testing.T) {
	env, err := baselines.NewEnv(benchCascade, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := trace.AzureLike(stats.NewRNG(diurnalShapeSeed), 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := raw.ScaleTo(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := newSim(env, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Collector.Records()
	if err := checkRecords(recs, 0, res.Queries); err != nil {
		t.Fatalf("clean run failed the gate: %v", err)
	}
	doubled := append(recs[:len(recs):len(recs)], recs[len(recs)/2])
	if err := checkRecords(doubled, 0, res.Queries); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("double-counted ID: gate said %v", err)
	}
	if err := checkRecords(recs[1:], 0, res.Queries); err == nil {
		t.Error("missing ID passed the gate")
	}

	// The same records as results polled off the wire, in two polls.
	results := make([]cluster.QueryResponse, len(recs))
	for i, r := range recs {
		results[i] = cluster.QueryResponse{ID: r.ID, Dropped: r.Dropped}
	}
	half := len(results) / 2
	deliver := func(extra ...cluster.QueryResponse) *deliveryCount {
		var d deliveryCount
		d.add(results[:half], nil)
		d.add(results[half:], nil)
		d.add(extra, nil)
		// A failed poll's response is stale and must not count.
		d.add(results, errors.New("poll failed"))
		return &d
	}
	if err := deliver().check(res.Queries); err != nil {
		t.Fatalf("clean results failed the gate: %v", err)
	}
	if err := deliver(results[half]).check(res.Queries); err == nil || !strings.Contains(err.Error(), "2 times") {
		t.Errorf("result delivered twice: gate said %v", err)
	}
	if err := deliver().check(res.Queries + 1); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Errorf("lost result: gate said %v", err)
	}
	if err := deliver(cluster.QueryResponse{ID: res.Queries}).check(res.Queries); err == nil {
		t.Error("result of a query never submitted passed the gate")
	}
}
