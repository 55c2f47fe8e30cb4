package main

import (
	"math"
	"sync"
	"sync/atomic"

	"diffserve/internal/cluster"
	"diffserve/internal/stats"
)

// qstamp holds the wall times (tracer ns) at which one query crossed
// the LB conn boundary. Zero means the crossing was not seen.
type qstamp struct {
	arrival                                                       float64 // scheduled arrival, trace seconds
	submit, lightPull, lightDone, heavyPull, heavyDone, delivered int64
	deferred, dropped                                             bool
}

// wireLog joins the query IDs seen in SubmitRequest, PullResponse (by
// role), CompleteRequest and ResultsResponse into per-query stamps.
// Only the first crossing of each kind counts, so a query re-pulled
// after a lease expiry or a drain migration keeps its first stamps.
type wireLog struct {
	timescale float64
	errors    atomic.Int64

	mu        sync.Mutex
	q         map[int]*qstamp
	anchor    int64 // wall ns of trace time zero, see submitted
	anchored  bool
	epochLo   int
	epochHi   int
	epochSeen bool
}

func newWireLog(timescale float64) *wireLog {
	return &wireLog{timescale: timescale, q: make(map[int]*qstamp)}
}

func (w *wireLog) stamp(id int) *qstamp {
	s := w.q[id]
	if s == nil {
		s = &qstamp{}
		w.q[id] = s
	}
	return s
}

func setOnce(dst *int64, v int64) {
	if *dst == 0 {
		*dst = v
	}
}

// submitted records a client submit. The harness submits a query only
// once trace time has reached its scheduled arrival, so every submit
// bounds trace zero from above: zero <= start - arrival*timescale. The
// tightest bound over all submits is the anchor; it overestimates trace
// zero by the least lateness the submitter ever had.
func (w *wireLog) submitted(req cluster.SubmitRequest, start int64) {
	if len(req.Queries) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	latest := math.Inf(-1)
	for _, q := range req.Queries {
		s := w.stamp(q.ID)
		setOnce(&s.submit, start)
		s.arrival = q.Arrival
		latest = math.Max(latest, q.Arrival)
	}
	bound := start - int64(latest*w.timescale*1e9)
	if !w.anchored || bound < w.anchor {
		w.anchor, w.anchored = bound, true
	}
}

func (w *wireLog) pulled(role string, qs []cluster.QueryMsg, end int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, q := range qs {
		s := w.stamp(q.ID)
		if role == "heavy" {
			setOnce(&s.heavyPull, end)
		} else {
			setOnce(&s.lightPull, end)
		}
	}
}

func (w *wireLog) completed(role string, items []cluster.CompleteItem, start int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, it := range items {
		s := w.stamp(it.ID)
		if role == "heavy" {
			setOnce(&s.heavyDone, start)
		} else {
			setOnce(&s.lightDone, start)
		}
	}
}

func (w *wireLog) delivered(rs []cluster.QueryResponse, end int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range rs {
		s := w.stamp(r.ID)
		if s.delivered == 0 {
			s.delivered, s.deferred, s.dropped = end, r.Deferred, r.Dropped
		}
	}
}

func (w *wireLog) epoch(e int) {
	if e <= 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.epochSeen || e < w.epochLo {
		w.epochLo = e
	}
	if !w.epochSeen || e > w.epochHi {
		w.epochHi = e
	}
	w.epochSeen = true
}

// reshards is the number of ring epochs installed after the first one
// the controller broadcast; each membership change bumps the epoch by one.
func (w *wireLog) reshards() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epochHi - w.epochLo
}

// stageNames lists the per-query stages in path order; their
// durations add up to each query's arrival-to-delivery time.
var stageNames = []string{"admit", "light_queue", "light_exec", "heavy_queue", "heavy_exec", "delivery"}

// stageSplit turns the stamps into per-stage p50s in trace seconds,
// records a "query" span per joined query with one child span per
// stage, and returns the metrics. Heavy stages are medians over the
// deferred queries only. residue is the end-to-end p50 minus the sum of
// the stage p50s: it is zero only if the stages' medians add up.
func (w *wireLog) stageSplit(t *tracer, parent int32) map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	ts := w.timescale
	traceOf := func(ns int64) float64 { return float64(ns-w.anchor) / 1e9 / ts }
	dur := func(a, b int64) float64 { return float64(b-a) / 1e9 / ts }
	per := make(map[string][]float64, len(stageNames))
	var e2e []float64
	joined, served := 0, 0
	for id, s := range w.q {
		if s.delivered == 0 || s.dropped {
			continue
		}
		served++
		if s.submit == 0 || s.lightPull == 0 || s.lightDone == 0 {
			continue
		}
		last := s.lightDone
		if s.deferred {
			if s.heavyPull == 0 || s.heavyDone == 0 {
				continue
			}
			last = s.heavyDone
		}
		joined++
		total := traceOf(s.delivered) - s.arrival
		e2e = append(e2e, total)
		arrivalNs := w.anchor + int64(s.arrival*ts*1e9)
		q := t.addChild(parent, "query", id, 1, arrivalNs, s.delivered)
		cuts := []struct {
			name     string
			from, to int64
		}{
			{"admit", arrivalNs, s.submit},
			{"light_queue", s.submit, s.lightPull},
			{"light_exec", s.lightPull, s.lightDone},
			{"heavy_queue", s.lightDone, s.heavyPull},
			{"heavy_exec", s.heavyPull, s.heavyDone},
			{"delivery", last, s.delivered},
		}
		for i, c := range cuts {
			if !s.deferred && (i == 3 || i == 4) {
				continue
			}
			per[c.name] = append(per[c.name], dur(c.from, c.to))
			t.addChild(q, "stage."+c.name, id, 1, c.from, c.to)
		}
	}
	out := map[string]float64{"stage.joined_ratio": 0}
	if served > 0 {
		out["stage.joined_ratio"] = float64(joined) / float64(served)
	}
	sum := 0.0
	for _, name := range stageNames {
		v := 0.0
		if len(per[name]) > 0 {
			v = stats.Quantile(per[name], 0.5)
		}
		out["stage."+name+"_s_p50"] = v
		sum += v
	}
	out["stage.e2e_s_p50"] = 0
	out["stage.residue_s_p50"] = 0
	if len(e2e) > 0 {
		p50 := stats.Quantile(e2e, 0.5)
		out["stage.e2e_s_p50"] = p50
		out["stage.residue_s_p50"] = p50 - sum
	}
	return out
}
