package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"diffserve/internal/cluster"
	"diffserve/internal/controller"
	"diffserve/internal/metrics"
)

// checkRecords is the exactly-once gate: every submitted ID, and no
// other, is resolved exactly once (completed or shed), so completed +
// failed = submitted.
func checkRecords(recs []metrics.QueryRecord, base, submitted int) error {
	seen := make([]bool, submitted)
	for _, r := range recs {
		i := r.ID - base
		if i < 0 || i >= submitted {
			return fmt.Errorf("gate: query %d was never submitted", r.ID)
		}
		if seen[i] {
			return fmt.Errorf("gate: query %d resolved twice", r.ID)
		}
		seen[i] = true
	}
	if len(recs) != submitted {
		return fmt.Errorf("gate: %d of %d submitted queries resolved", len(recs), submitted)
	}
	return nil
}

// deliveryCount counts, per query ID, the results the LB shards hand
// out over the wire: what the frontend merges for the client. The LB
// collectors keep one record per ID even when a result is lost or sent
// twice on its way out, so the exactly-once gate checks here too.
type deliveryCount struct {
	mu     sync.Mutex
	counts []int32
	stray  int // results with a negative ID
}

// add counts the results of one poll. A failed tcp poll leaves the
// response as the previous poll left it, so it carries no results.
func (d *deliveryCount) add(rs []cluster.QueryResponse, err error) {
	if err != nil || len(rs) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range rs {
		switch {
		case r.ID < 0:
			d.stray++
			continue
		case r.ID >= len(d.counts):
			d.counts = append(d.counts, make([]int32, r.ID+1-len(d.counts))...)
		}
		d.counts[r.ID]++
	}
}

// check requires exactly one result for every submitted ID (0 to
// submitted-1) and none for any other. A lost result fails the run
// even though the harness gives up waiting for it without an error.
func (d *deliveryCount) check(submitted int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stray > 0 || len(d.counts) > submitted {
		return fmt.Errorf("gate: a result came back for a query that was never submitted")
	}
	for id := 0; id < submitted; id++ {
		c := int32(0)
		if id < len(d.counts) {
			c = d.counts[id]
		}
		switch {
		case c == 0:
			return fmt.Errorf("gate: the result of query %d was lost", id)
		case c > 1:
			return fmt.Errorf("gate: query %d was delivered %d times", id, c)
		}
	}
	return nil
}

// checkOutcome rejects a repetition whose quality could not be scored.
func checkOutcome(r *repResult) error {
	if math.IsNaN(r.fid) || math.IsInf(r.fid, 0) {
		return fmt.Errorf("gate: FID is %v", r.fid)
	}
	if r.submitted-r.failed < 2 {
		return fmt.Errorf("gate: only %d queries completed", r.submitted-r.failed)
	}
	return nil
}

// fingerprint identifies a deterministic run's outcome: query count,
// FID, violation ratio and the whole plan sequence (solve times
// excluded, since they are wall-clock).
func fingerprint(sum metrics.Summary, plans []controller.PlanAt) string {
	h := fnv.New64a()
	for _, pa := range plans {
		p := pa.Plan
		fmt.Fprintf(h, "%x %x %x %x %d %d %d %d %v;",
			math.Float64bits(pa.Time), math.Float64bits(pa.Demand),
			math.Float64bits(p.Threshold), math.Float64bits(p.DeferFraction),
			p.LightWorkers, p.HeavyWorkers, p.LightBatch, p.HeavyBatch, p.Feasible)
	}
	return fmt.Sprintf("queries=%d fid=%x viol=%x plans=%d/%016x",
		sum.Queries, math.Float64bits(sum.FID), math.Float64bits(sum.ViolationRatio), len(plans), h.Sum64())
}
