package main

import (
	"strings"

	"diffserve/internal/allocator"
	"diffserve/internal/stats"
)

// commonLayers derives the numbers of the layers both paths call: the
// allocator (and its MILP solver), the discriminator, set-up and the
// metrics summary.
func commonLayers(t *tracer, alloc *allocator.MILPAllocator) map[string]float64 {
	m := map[string]float64{}
	ad := t.durations("allocator.allocate")
	m["allocator.calls"] = float64(len(ad))
	m["allocator.ms_p50"] = quantileOr0(ad, 0.5) / 1e6
	m["allocator.ms_p99"] = quantileOr0(ad, 0.99) / 1e6
	m["allocator.s_total"] = total(ad) / 1e9
	ss := alloc.SolveStats()
	m["milp.warm_lps"] = float64(ss.WarmLPs)
	m["milp.cold_lps"] = float64(ss.ColdLPs)
	dd := t.durations("discriminator.confidence")
	m["discriminator.calls"] = float64(len(dd))
	m["discriminator.us_mean"] = 0
	if len(dd) > 0 {
		m["discriminator.us_mean"] = total(dd) / float64(len(dd)) / 1e3
	}
	m["discriminator.s_total"] = total(dd) / 1e9
	m["metrics.summarize_ms"] = total(t.durations("metrics.summarize")) / 1e6
	m["setup.env_s"] = total(t.durations("setup.env")) / 1e9
	m["setup.harness_s"] = total(t.durations("setup.harness")) / 1e9
	return m
}

// wireLayers derives the per-method numbers of the LB conns.
func wireLayers(t *tracer) map[string]float64 {
	var submit, complete, poll, control, wait []float64
	var submitted, polled, pulls, pullHits, steals, stealHits float64
	var batch, batches [2]float64 // light, heavy
	for _, s := range t.spans {
		d := float64(s.end - s.start)
		n := float64(s.n)
		switch {
		case s.name == "cluster.submit":
			submit = append(submit, d)
			submitted += n
		case s.name == "cluster.complete":
			complete = append(complete, d)
		case s.name == "cluster.poll":
			poll = append(poll, d)
			polled += n
		case s.name == "cluster.control":
			control = append(control, d)
		case strings.HasPrefix(s.name, "cluster.pull."), strings.HasPrefix(s.name, "cluster.steal."):
			pulls++
			steal := strings.HasPrefix(s.name, "cluster.steal.")
			if steal {
				steals++
			} else {
				wait = append(wait, d)
			}
			if s.n == 0 {
				continue
			}
			pullHits++
			if steal {
				stealHits++
			}
			role := 0
			if strings.HasSuffix(s.name, ".heavy") {
				role = 1
			}
			batch[role] += n
			batches[role]++
		}
	}
	return map[string]float64{
		"cluster.submit.calls":            float64(len(submit)),
		"cluster.submit.queries_per_call": ratio(submitted, float64(len(submit))),
		"cluster.submit.us_p50":           quantileOr0(submit, 0.5) / 1e3,
		"cluster.submit.us_p99":           quantileOr0(submit, 0.99) / 1e3,
		"cluster.pull.calls":              pulls,
		"cluster.pull.hit_ratio":          ratio(pullHits, pulls),
		"cluster.pull.batch_mean_light":   ratio(batch[0], batches[0]),
		"cluster.pull.batch_mean_heavy":   ratio(batch[1], batches[1]),
		"cluster.pull.wait_ms_p50":        quantileOr0(wait, 0.5) / 1e6,
		"cluster.complete.calls":          float64(len(complete)),
		"cluster.complete.us_p50":         quantileOr0(complete, 0.5) / 1e3,
		"cluster.complete.us_p99":         quantileOr0(complete, 0.99) / 1e3,
		"cluster.poll.calls":              float64(len(poll)),
		"cluster.poll.results_per_call":   ratio(polled, float64(len(poll))),
		"cluster.control.calls":           float64(len(control)),
		"cluster.control.us_p50":          quantileOr0(control, 0.5) / 1e3,
		"cluster.errors":                  float64(t.wire.errors.Load()),
		"shard.steal.calls":               steals,
		"shard.steal.hit_ratio":           ratio(stealHits, steals),
	}
}

func total(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantileOr0 is the q-quantile, or 0 for a layer that saw no calls.
func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
