package main

import (
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkWirePath/tcp-8   \t 1234\t     43210 ns/op\t    6409 B/op\t      14 allocs/op", 8)
	if !ok {
		t.Fatal("line not recognized")
	}
	want := benchResult{Name: "BenchmarkWirePath/tcp", Iterations: 1234, NsPerOp: 43210, BytesPerOp: 6409, AllocsPerOp: 14}
	if r != want {
		t.Fatalf("parsed %+v, want %+v", r, want)
	}

	// Without -benchmem the memory columns are absent, not zero.
	r, ok = parseBenchLine("BenchmarkRingLookup-8   999   55.5 ns/op", 8)
	if !ok || r.NsPerOp != 55.5 || r.BytesPerOp != -1 || r.AllocsPerOp != -1 {
		t.Fatalf("parsed %+v", r)
	}

	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tdiffserve/internal/cluster\t4.2s",
		"--- BENCH: BenchmarkX",
		"BenchmarkBroken notanumber 1 ns/op",
		"",
	} {
		if _, ok := parseBenchLine(line, 8); ok {
			t.Fatalf("non-result line parsed: %q", line)
		}
	}
}

func TestTrimProcs(t *testing.T) {
	for _, c := range []struct {
		in    string
		procs int
		want  string
	}{
		{"BenchmarkWirePath/tcp-8", 8, "BenchmarkWirePath/tcp"},
		{"BenchmarkWirePath/tcp-16", 16, "BenchmarkWirePath/tcp"},
		{"BenchmarkFig5", 8, "BenchmarkFig5"},
		{"BenchmarkX/sub-case", 8, "BenchmarkX/sub-case"},
		// GOMAXPROCS 1: go test appends no suffix, so a numeric tail
		// is part of the sub-benchmark's name.
		{"BenchmarkShardedSubmit/shards-2", 1, "BenchmarkShardedSubmit/shards-2"},
		{"BenchmarkShardedSubmit/shards=4", 1, "BenchmarkShardedSubmit/shards=4"},
		// GOMAXPROCS 2: only the "-2" go test appended goes.
		{"BenchmarkShardedSubmit/shards=4-2", 2, "BenchmarkShardedSubmit/shards=4"},
		{"BenchmarkShardedSubmit/shards-4-2", 2, "BenchmarkShardedSubmit/shards-4"},
		{"BenchmarkShardedSubmit/shards-4", 2, "BenchmarkShardedSubmit/shards-4"},
	} {
		if got := trimProcs(c.in, c.procs); got != c.want {
			t.Errorf("trimProcs(%q, %d) = %q, want %q", c.in, c.procs, got, c.want)
		}
	}
}

func TestGate(t *testing.T) {
	results := []benchResult{
		{Name: "BenchmarkWirePath/tcp", AllocsPerOp: 14},
		{Name: "BenchmarkWirePath/json", AllocsPerOp: 552},
		{Name: "BenchmarkNoMem", AllocsPerOp: -1},
	}
	if err := gate(results, map[string]int64{"BenchmarkWirePath/tcp": 16}); err != nil {
		t.Fatalf("within budget but failed: %v", err)
	}
	if err := gate(results, map[string]int64{"BenchmarkWirePath/tcp": 13}); err == nil {
		t.Fatal("over budget but passed")
	}
	if err := gate(results, map[string]int64{"BenchmarkGone": 1}); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing benchmark must fail the gate, got %v", err)
	}
	if err := gate(results, map[string]int64{"BenchmarkNoMem": 1}); err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("missing allocs column must fail the gate, got %v", err)
	}
}

func TestParseBudgets(t *testing.T) {
	b, err := parseBudgets("BenchmarkWirePath/tcp=16, BenchmarkWirePath/inproc=8")
	if err != nil || b["BenchmarkWirePath/tcp"] != 16 || b["BenchmarkWirePath/inproc"] != 8 {
		t.Fatalf("parseBudgets = %v, %v", b, err)
	}
	if _, err := parseBudgets("nobudget"); err == nil {
		t.Fatal("malformed spec accepted")
	}
	// Sub-benchmark names may contain '=' themselves; the budget is
	// after the LAST one.
	if b, err := parseBudgets("BenchmarkControlTickSolve/pools=10=2600"); err != nil || b["BenchmarkControlTickSolve/pools=10"] != 2600 {
		t.Fatalf("name-with-equals spec: %v, %v", b, err)
	}
	if _, err := parseBudgets("x=abc"); err == nil {
		t.Fatal("non-numeric budget accepted")
	}
	if b, err := parseBudgets(""); err != nil || len(b) != 0 {
		t.Fatalf("empty spec: %v, %v", b, err)
	}
}

// TestReadReportStamps checks the summary's environment stamp: the Go
// version and GOMAXPROCS of the run, the first `cpu:` header line, and
// the commit given, alongside the parsed results; the text itself
// passes through unchanged.
func TestReadReportStamps(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: diffserve/internal/cluster",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
		"BenchmarkWirePath/tcp-2   \t 1000\t 43210 ns/op\t 6409 B/op\t 0 allocs/op",
		"pkg: diffserve",
		"cpu: some other line",
		"PASS",
	}, "\n") + "\n"
	var pass strings.Builder
	r, err := readReport(strings.NewReader(in), &pass, 2, "abc123")
	if err != nil {
		t.Fatal(err)
	}
	if pass.String() != in {
		t.Errorf("passthrough changed the text:\n%s", pass.String())
	}
	want := benchEnv{GoVersion: runtime.Version(), GOMAXPROCS: 2, CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", Commit: "abc123"}
	if r.Env != want {
		t.Errorf("env = %+v, want %+v", r.Env, want)
	}
	if len(r.Benchmarks) != 1 || r.Benchmarks[0].Name != "BenchmarkWirePath/tcp" || r.Benchmarks[0].AllocsPerOp != 0 {
		t.Errorf("benchmarks = %+v", r.Benchmarks)
	}

	// Input without a cpu: header leaves the field empty rather than
	// guessing.
	r, err = readReport(strings.NewReader("BenchmarkX 1 1 ns/op\n"), io.Discard, 1, "none")
	if err != nil || r.Env.CPU != "" || r.Env.Commit != "none" || len(r.Benchmarks) != 1 {
		t.Errorf("report = %+v, %v", r, err)
	}
}
