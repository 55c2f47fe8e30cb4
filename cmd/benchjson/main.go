// Command benchjson converts `go test -bench` output into a JSON
// summary and optionally enforces an allocation budget.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH.json -commit "$(git rev-parse HEAD)"
//	go test -run '^$' -bench WirePath -benchmem ./... | benchjson -max-allocs 'BenchmarkWirePath/tcp=2'
//
// The benchmark text passes through to stdout unchanged, so the tool
// can sit at the end of a Makefile pipe without hiding the readable
// report. The JSON summary is stamped with the environment the numbers
// came from — the Go version, GOMAXPROCS, the run's `cpu:` line and
// the -commit given — so a later run can tell whether it is comparing
// like with like. -max-allocs takes comma-separated name=budget pairs (names
// without the -GOMAXPROCS suffix); a named benchmark that is missing
// from the input or exceeds its budget fails the run. The suffix
// stripped is this process's GOMAXPROCS, which is the benchmark run's
// when both read the same environment on the same machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// benchResult is one benchmark line. B/op and allocs/op are -1 when
// the run did not use -benchmem.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchEnv stamps a report with where its numbers came from. The Go
// version and GOMAXPROCS are this process's, which are the benchmark
// run's when both are started by the same toolchain in the same
// environment (as the Makefile pipes do).
type benchEnv struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

type benchReport struct {
	Unit       string        `json:"unit"`
	Env        benchEnv      `json:"env"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write the JSON summary to this file")
	maxAllocs := flag.String("max-allocs", "", "comma-separated name=budget allocs/op gates, e.g. 'BenchmarkWirePath/tcp=2'")
	commit := flag.String("commit", "none", "commit the benchmarked sources came from, stamped into the summary")
	flag.Parse()

	budgets, err := parseBudgets(*maxAllocs)
	if err != nil {
		fatal(err)
	}

	report, err := readReport(os.Stdin, os.Stdout, runtime.GOMAXPROCS(0), *commit)
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
	}

	if len(budgets) > 0 {
		if err := gate(report.Benchmarks, budgets); err != nil {
			fatal(err)
		}
	}
}

// readReport copies `go test -bench` output from r to w line by line
// and collects its result lines and its `cpu:` header into a report
// stamped for a run at GOMAXPROCS procs from commit.
func readReport(r io.Reader, w io.Writer, procs int, commit string) (benchReport, error) {
	report := benchReport{
		Unit:       "ns/op, B/op, allocs/op",
		Env:        benchEnv{GoVersion: runtime.Version(), GOMAXPROCS: procs, Commit: commit},
		Benchmarks: []benchResult{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line) // passthrough: keep the readable report
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok && report.Env.CPU == "" {
			report.Env.CPU = strings.TrimSpace(cpu)
		}
		if r, ok := parseBenchLine(line, procs); ok {
			report.Benchmarks = append(report.Benchmarks, r)
		}
	}
	return report, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func parseBudgets(spec string) (map[string]int64, error) {
	budgets := map[string]int64{}
	if spec == "" {
		return budgets, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		// Split at the LAST '=': sub-benchmark names may themselves
		// contain one (BenchmarkControlTickSolve/pools=10=2600).
		pair = strings.TrimSpace(pair)
		cut := strings.LastIndexByte(pair, '=')
		if cut < 0 {
			return nil, fmt.Errorf("bad -max-allocs entry %q (want name=budget)", pair)
		}
		name, val := pair[:cut], pair[cut+1:]
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -max-allocs budget %q: %v", pair, err)
		}
		budgets[name] = n
	}
	return budgets, nil
}

// parseBenchLine parses one `go test -bench` result line of a run at
// GOMAXPROCS procs:
//
//	BenchmarkWirePath/tcp-8   1234   43210 ns/op   6409 B/op   14 allocs/op
func parseBenchLine(line string, procs int) (benchResult, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: trimProcs(f[0], procs), Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	for i := 2; i+1 < len(f); i += 2 {
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(f[i], 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(f[i], 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(f[i], 10, 64)
		}
	}
	return r, true
}

// trimProcs drops the -GOMAXPROCS suffix go test appends to each
// benchmark name. At GOMAXPROCS 1 go test appends none, and any other
// numeric suffix is part of the name (BenchmarkX/shards-2), so only
// "-procs" is stripped.
func trimProcs(name string, procs int) string {
	if procs == 1 {
		return name
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
}

// gate enforces the allocs/op budgets. Every named benchmark must be
// present — a gate that silently passes when its benchmark vanished
// is worse than no gate.
func gate(results []benchResult, budgets map[string]int64) error {
	byName := map[string]benchResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	var failures []string
	for name, budget := range budgets {
		r, ok := byName[name]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: not found in input", name))
		case r.AllocsPerOp < 0:
			failures = append(failures, fmt.Sprintf("%s: no allocs/op (run with -benchmem)", name))
		case r.AllocsPerOp > budget:
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds budget %d", name, r.AllocsPerOp, budget))
		default:
			fmt.Fprintf(os.Stderr, "allocs-gate: %s %d allocs/op <= budget %d\n", name, r.AllocsPerOp, budget)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation budget exceeded:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
