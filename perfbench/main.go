// Command perfbench is the end-to-end serving benchmark. It runs one
// workload through the repository's public entry points, checks that
// the outputs are correct, and prints the result as one JSON line.
//
//	perfbench -workload sim-diurnal -seed 1 -seconds 30 -trace 0
//
// A run repeats the workload over a fixed set of input seeds derived
// from -seed, in whole cycles, until -seconds have passed; each metric
// is the median over the repetitions. With -trace 0 it reports the
// end-to-end metrics. With -trace 1 it pairs every repetition with a
// traced one on the same inputs and reports the per-layer metrics,
// timed from outside through wrappers around cluster.Transport,
// discriminator.Scorer and allocator.Allocator, and writes the spans.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"diffserve/internal/cluster"
)

// workload is one traffic mix the benchmark runs.
type workload struct {
	name string
	// seeds is the number of distinct input seeds in one cycle.
	seeds     int
	timescale float64 // wall seconds per trace second; 0 for the simulator
	// rep runs the workload once. A repetition that returns a
	// fingerprint claims to be deterministic: every repetition of its
	// seed, traced or not, must return the same one.
	rep func(seed uint64, t *tracer) (*repResult, error)
}

// workloads returns the benchmark's workloads with their trace lengths
// multiplied by scale (1 for the benchmark, smaller for the self-test).
// At scale 1 one cycle of each takes 25-30 s on a 2-core box.
func workloads(scale float64) map[string]*workload {
	// cluster-steady: the production data path over 2 static shards at a
	// constant 12 qps, below the 16 workers' capacity so outcomes do not
	// follow scheduler noise; at 24 qps the SLO violations varied from
	// 0.05 to 0.15 between runs. Both cluster workloads can still shed
	// their first queries: cluster.Run applies the initial plan before it
	// restarts the trace clock, so after the restart the workers stay
	// unavailable for as long as the run took to reach that plan, in
	// trace seconds (usually a fraction of one). A slow start stretches
	// that past the SLO minus a batch's execution time. That is a defect
	// of the program, which the failed counts are meant to show.
	steady := clusterWorkload{
		rates: []float64{12}, interval: 100 * scale,
		workers: 16, shards: 2,
	}
	// cluster-elastic: demand ramps 4 -> 10 qps over 60 s, holds 55 s and
	// ramps back, and the controller follows by growing the tier from 1
	// to 3 shards and back (16 workers stripe 6/5/5 over 3 shards, so
	// weighted vnodes and stealing matter). Steps shed queries: the
	// allocator leaves about 5% headroom, so a jump in demand overloads
	// the heavy pool until the next plans catch up. A direct 4 -> 12 qps
	// step on 14 workers, a 4-8-12-8-4 staircase on 16, and a 4-7-10-7-4
	// one each shed a few queries in one repetition in twenty to thirty.
	elastic := clusterWorkload{
		rates: trapezoid(4, 10, 60, 55), interval: scale,
		workers: 16, shards: 1, vnodes: 128, steal: true,
		autoscale: &cluster.AutoscaleConfig{MinShards: 1, MaxShards: 3, ShardCapacityQPS: 4.5},
	}
	return map[string]*workload{
		// sim-diurnal's outcome per seed is bimodal: about one seed in
		// four sheds 10-18% of its queries at the peak. The median of 15
		// seeds keeps that out of the reported figures (the shed queries
		// still count as failed).
		"sim-diurnal": {
			name: "sim-diurnal", seeds: 15,
			rep: simWorkload{duration: 900 * scale}.rep,
		},
		"cluster-steady": {
			name: "cluster-steady", seeds: 5, timescale: clusterTimescale,
			rep: steady.rep,
		},
		"cluster-elastic": {
			name: "cluster-elastic", seeds: 3, timescale: clusterTimescale,
			rep: elastic.rep,
		},
	}
}

// trapezoid is a per-second rate series that rises linearly from lo to
// hi over ramp seconds, holds hi for hold seconds and falls back.
func trapezoid(lo, hi float64, ramp, hold int) []float64 {
	var rates []float64
	for i := 0; i < ramp; i++ {
		rates = append(rates, lo+(hi-lo)*float64(i)/float64(ramp))
	}
	for i := 0; i < hold; i++ {
		rates = append(rates, hi)
	}
	for i := ramp - 1; i >= 0; i-- {
		rates = append(rates, rates[i])
	}
	return rates
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_mean_s", "s"},
	{"latency_p99_s", "s"},
	{"slo_attainment", "ratio"},
	{"fid", "fid"},
	{"allocs_per_query", "count"},
	{"bytes_per_query", "B"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"allocator.calls", "count"},
	{"allocator.ms_p50", "ms"},
	{"allocator.ms_p99", "ms"},
	{"allocator.s_total", "s"},
	{"milp.warm_lps", "count"},
	{"milp.cold_lps", "count"},
	{"discriminator.calls", "count"},
	{"discriminator.us_mean", "us"},
	{"discriminator.s_total", "s"},
	{"system.run_s", "s"},
	{"system.self_s", "s"},
	{"metrics.summarize_ms", "ms"},
	{"setup.env_s", "s"},
	{"setup.harness_s", "s"},
	{"cascade.defer_ratio", "ratio"},
	{"cluster.submit.calls", "count"},
	{"cluster.submit.queries_per_call", "count"},
	{"cluster.submit.us_p50", "us"},
	{"cluster.submit.us_p99", "us"},
	{"cluster.pull.calls", "count"},
	{"cluster.pull.hit_ratio", "ratio"},
	{"cluster.pull.batch_mean_light", "count"},
	{"cluster.pull.batch_mean_heavy", "count"},
	{"cluster.pull.wait_ms_p50", "ms"},
	{"cluster.complete.calls", "count"},
	{"cluster.complete.us_p50", "us"},
	{"cluster.complete.us_p99", "us"},
	{"cluster.poll.calls", "count"},
	{"cluster.poll.results_per_call", "count"},
	{"cluster.control.calls", "count"},
	{"cluster.control.us_p50", "us"},
	{"cluster.errors", "count"},
	{"stage.admit_s_p50", "s"},
	{"stage.light_queue_s_p50", "s"},
	{"stage.light_exec_s_p50", "s"},
	{"stage.heavy_queue_s_p50", "s"},
	{"stage.heavy_exec_s_p50", "s"},
	{"stage.delivery_s_p50", "s"},
	{"stage.residue_s_p50", "s"},
	{"stage.e2e_s_p50", "s"},
	{"stage.joined_ratio", "ratio"},
	{"shard.steal.calls", "count"},
	{"shard.steal.hit_ratio", "ratio"},
	{"shard.reshards", "count"},
	{"shard.peak", "count"},
	{"shard.final", "count"},
	{"shard.live_epochs", "count"},
	{"process.cpu_ms_per_query", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"trace.overhead_cpu_ms_per_query", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// repSeed derives the i-th input seed of a run.
func repSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

// run repeats the workload over its input seeds until the time budget
// is spent, starting no repetition that the last one's duration says
// would overrun it. Untraced, it runs whole cycles over the seeds, so
// every seed weighs the same in the medians. Traced, every repetition
// is followed by a traced one on the same seed.
func run(w *workload, seed uint64, budget time.Duration, traced bool, log io.Writer) ([]*repResult, error) {
	start := time.Now()
	var reps []*repResult
	seen := map[uint64]string{}
	check := func(r *repResult) error {
		fmt.Fprintf(log, "{\"rep\": %d, \"seed\": %d, \"traced\": %v, \"queries\": %d, \"failed\": %d, \"setup_s\": %.4f, \"run_s\": %.4f, \"fingerprint\": %q}\n",
			len(reps), r.seed, r.traced, r.submitted, r.failed, r.setup, r.runWall, r.fingerprint)
		if r.fingerprint == "" {
			return nil
		}
		if prev, ok := seen[r.seed]; ok && prev != r.fingerprint {
			return fmt.Errorf("gate: seed %d is not deterministic: %s then %s", r.seed, prev, r.fingerprint)
		}
		seen[r.seed] = r.fingerprint
		return nil
	}
	repeat := func(s uint64, t *tracer) error {
		// Every repetition starts from a collected heap, as the first
		// one does, so the last one's garbage is not swept during this
		// one's set-up.
		runtime.GC()
		r, err := w.rep(s, t)
		if err != nil {
			return fmt.Errorf("%s seed %d (traced %v): %w", w.name, s, t != nil, err)
		}
		if err := check(r); err != nil {
			return err
		}
		reps = append(reps, r)
		return nil
	}
	for {
		cycle := time.Now()
		for i := 0; i < w.seeds; i++ {
			s := repSeed(seed, i)
			if !traced {
				if err := repeat(s, nil); err != nil {
					return reps, err
				}
				continue
			}
			// Alternate which side of a pair runs first, so the first
			// repetition's warm-up does not bias the tracing overhead.
			pair := time.Now()
			order := []*tracer{nil, newTracer()}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, t := range order {
				if err := repeat(s, t); err != nil {
					return reps, err
				}
			}
			if time.Since(start)+time.Since(pair) > budget {
				return reps, nil
			}
		}
		if time.Since(start)+time.Since(cycle) > budget {
			return reps, nil
		}
	}
}

// summarize reduces the repetitions to the reported metrics: medians
// over the untraced repetitions for end-to-end metrics, medians over
// the traced ones for per-layer metrics.
func summarize(reps []*repResult, traced bool) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var plain, withTrace []*repResult
	for _, r := range reps {
		res.Attempted += r.submitted
		res.Failed += r.failed
		if r.traced {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
	}
	med := func(rs []*repResult, f func(*repResult) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	cpuPerQuery := func(r *repResult) float64 { return r.cpu * 1e3 / float64(r.submitted) }
	if !traced {
		vals := map[string]float64{
			"setup_s":          med(plain, func(r *repResult) float64 { return r.setup }),
			"latency_mean_s":   med(plain, func(r *repResult) float64 { return r.latMean }),
			"latency_p99_s":    med(plain, func(r *repResult) float64 { return r.latP99 }),
			"slo_attainment":   med(plain, func(r *repResult) float64 { return float64(r.sloMet) / float64(r.submitted) }),
			"fid":              med(plain, func(r *repResult) float64 { return r.fid }),
			"allocs_per_query": med(plain, func(r *repResult) float64 { return float64(r.allocs) / float64(r.submitted) }),
			"bytes_per_query":  med(plain, func(r *repResult) float64 { return float64(r.bytes) / float64(r.submitted) }),
			"peak_rss_mb":      peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		return res
	}
	for _, d := range perLayer {
		v := med(withTrace, func(r *repResult) float64 { return r.layers[d.name] })
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	// The process's own numbers come from the untraced partners, so the
	// tracer's work does not count against them. CPU per query is not an
	// end-to-end metric: on a shared 2-vCPU host it moved by up to 30%
	// between runs of the same inputs minutes apart, more than any bound.
	res.Metrics["process.cpu_ms_per_query"] = metricValue{med(plain, cpuPerQuery), "ms"}
	res.Metrics["runtime.gc_cycles"] = metricValue{med(plain, func(r *repResult) float64 { return float64(r.gcCycles) }), "count"}
	res.Metrics["runtime.gc_pause_ms_total"] = metricValue{med(plain, func(r *repResult) float64 { return r.gcPauseMs }), "ms"}
	res.Metrics["trace.overhead_cpu_ms_per_query"] = metricValue{med(withTrace, cpuPerQuery) - med(plain, cpuPerQuery), "ms"}
	return res
}

// envStamp describes where and on what a result was measured.
func envStamp(w *workload, seed uint64, commit string) map[string]interface{} {
	return map[string]interface{}{
		"workload":   w.name,
		"seed":       seed,
		"timescale":  w.timescale,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"source":     sourceDigest("."),
	}
}

// cpuModel returns the first "model name" line of /proc/cpuinfo, the
// line go test prints as "cpu:".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources under root, so a result
// names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func main() {
	name := flag.String("workload", "", "workload: sim-diurnal, cluster-steady or cluster-elastic")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "time budget of the measured repetitions")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	commit := flag.String("commit", "none", "commit the sources came from, if known")
	flag.Parse()
	w, ok := workloads(1)[*name]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *traceFlag, *seconds)
		os.Exit(2)
	}
	traced := *traceFlag == 1
	stamp := envStamp(w, *seed, *commit)
	stampJSON, err := json.Marshal(stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("{\"env\": %s}\n", stampJSON)

	reps, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), traced, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		failed := result{Metrics: map[string]metricValue{}}
		for _, r := range reps {
			failed.Attempted += r.submitted
			failed.Failed += r.failed
		}
		out, _ := json.Marshal(failed)
		fmt.Println(string(out))
		os.Exit(1)
	}
	if traced {
		var ts []*tracer
		for _, r := range reps {
			if r.spans != nil {
				ts = append(ts, r.spans)
			}
		}
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.tsv", w.name, *seed))
		if err := writeSpans(path, string(stampJSON), ts); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(summarize(reps, traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
