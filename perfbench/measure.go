package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"diffserve/internal/metrics"
	"diffserve/internal/stats"
)

// procSample is a snapshot of the process counters a phase is charged
// with: wall time, user+system CPU, and cumulative heap allocations.
type procSample struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return procSample{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		bytes:  s[1].Value.Uint64(),
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcSample reads the collector's cycle count and total pause time.
func gcSample() (cycles uint32, pauseNs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, ms.PauseTotalNs
}

// repResult is what one repetition of a workload measured.
type repResult struct {
	seed      uint64
	traced    bool
	setup     float64 // s, workload start to first query submitted
	runWall   float64 // s, run phase
	cpu       float64 // s, user+sys in the run phase
	allocs    uint64  // heap allocations in the run phase
	bytes     uint64  // heap bytes in the run phase
	gcCycles  uint32
	gcPauseMs float64

	submitted int
	failed    int // shed, lost or failed by a transport error
	sloMet    int
	fid       float64
	latMean   float64 // s, over completed queries
	latP99    float64

	fingerprint string
	layers      map[string]float64 // traced repetitions only
	spans       *tracer
}

// outcome fills the query-level fields from the run's records: a query
// meets the SLO only if it completed by its deadline, so a shed or lost
// query counts as a miss.
func (r *repResult) outcome(col *metrics.Collector, sum metrics.Summary, submitted int) {
	r.submitted = submitted
	var lats []float64
	for _, rec := range col.Records() {
		if rec.Dropped {
			continue
		}
		lats = append(lats, rec.Latency())
		if !rec.Violated() {
			r.sloMet++
		}
	}
	r.failed = submitted - len(lats)
	r.fid = sum.FID
	r.latMean = stats.Mean(lats)
	r.latP99 = stats.Quantile(lats, 0.99)
}

// charge sets the run-phase costs from two process samples.
func (r *repResult) charge(from, to procSample) {
	r.runWall = to.wall.Sub(from.wall).Seconds()
	r.cpu = (to.cpu - from.cpu).Seconds()
	r.allocs = to.allocs - from.allocs
	r.bytes = to.bytes - from.bytes
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }
