package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"diffserve/internal/allocator"
	"diffserve/internal/cluster"
	"diffserve/internal/discriminator"
	"diffserve/internal/imagespace"
	"diffserve/internal/milp"
)

// span is one timed call into a layer, recorded from outside the
// program. Times are nanoseconds since the tracer's epoch. Spans of
// one query carry its ID; spans of calls that serve many queries carry
// -1. n is the number of queries (or results, or items) the call moved.
type span struct {
	name       string
	query      int
	parent     int32
	n          int32
	start, end int64
}

// tracer keeps every span of one repetition in memory; the spans are
// written out when the benchmark run ends.
type tracer struct {
	epoch time.Time
	// phase is the span new layer calls nest under: the repetition's
	// root span, or the simulator's Run span while it executes.
	phase atomic.Int32

	mu    sync.Mutex
	spans []span
	// frozen is set once the repetition is over. Goroutines the run
	// left behind may still call the wrappers; their spans are dropped,
	// and spans is read without mu from then on.
	frozen bool
	wire   *wireLog
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.phase.Store(-1)
	return t
}

// The methods below are no-ops on a nil tracer, so untraced
// repetitions run the same code without recording anything.

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a finished span under the current phase and returns its
// index.
func (t *tracer) add(name string, query int, n int, start, end int64) int32 {
	if t == nil {
		return -1
	}
	return t.addChild(t.phase.Load(), name, query, n, start, end)
}

func (t *tracer) addChild(parent int32, name string, query int, n int, start, end int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return -1
	}
	t.spans = append(t.spans, span{name: name, query: query, parent: parent, n: int32(n), start: start, end: end})
	return int32(len(t.spans) - 1)
}

// freeze ends recording. Every reader of spans runs after it.
func (t *tracer) freeze() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.frozen = true
	t.mu.Unlock()
}

// open starts a span that later calls nest under; close sets its end.
func (t *tracer) open(name string) int32 {
	if t == nil {
		return -1
	}
	s := t.now()
	idx := t.add(name, -1, 0, s, s)
	t.phase.Store(idx)
	return idx
}

func (t *tracer) close(idx int32, parent int32) {
	if t == nil {
		return
	}
	e := t.now()
	t.mu.Lock()
	if !t.frozen {
		t.spans[idx].end = e
	}
	t.mu.Unlock()
	t.phase.Store(parent)
}

// durations returns the durations (ns) of every span with the name.
// The tracer must be frozen.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// writeSpans writes the spans of frozen traced repetitions to a TSV file:
// a "#" header line per repetition, then one span per line.
func writeSpans(path string, header string, reps []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	for i, t := range reps {
		fmt.Fprintf(w, "# rep %d %s\n# index\tparent\tname\tquery\tn\tstart_ns\tend_ns\n", i, header)
		for j, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", j, s.parent, s.name, s.query, s.n, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// tracedScorer times every Confidence call into the discriminator.
type tracedScorer struct {
	inner discriminator.Scorer
	t     *tracer
}

func (s tracedScorer) Name() string             { return s.inner.Name() }
func (s tracedScorer) PerImageLatency() float64 { return s.inner.PerImageLatency() }

func (s tracedScorer) Confidence(q *imagespace.Query, img imagespace.Image) float64 {
	start := s.t.now()
	c := s.inner.Confidence(q, img)
	s.t.add("discriminator.confidence", q.ID, 1, start, s.t.now())
	return c
}

// tracedAllocator times every Allocate call. It forwards SolveStats,
// which the controller type-asserts to report the solver's warm/cold
// split, so wrapping does not change what the controller sees.
type tracedAllocator struct {
	inner *allocator.MILPAllocator
	t     *tracer
}

func (a tracedAllocator) Name() string { return a.inner.Name() }

func (a tracedAllocator) Allocate(obs allocator.Observation) (allocator.Plan, error) {
	start := a.t.now()
	p, err := a.inner.Allocate(obs)
	a.t.add("allocator.allocate", -1, 0, start, a.t.now())
	return p, err
}

func (a tracedAllocator) SolveStats() milp.IncrementalStats { return a.inner.SolveStats() }

// probeTransport wraps the cluster transport the way
// cluster.FaultTransport does, without injecting anything. Untraced, it
// marks the first client submit (the end of set-up) and counts the
// results each query ID got; traced, it also records a span per LB
// call and the query IDs each call moved.
type probeTransport struct {
	inner cluster.Transport
	t     *tracer // nil when untraced

	first   atomic.Pointer[firstSubmit]
	results deliveryCount
}

// firstSubmit marks the first client submit of a run: the end of set-up.
type firstSubmit struct {
	proc    procSample
	ns      int64   // tracer time; 0 untraced
	arrival float64 // scheduled arrival of the first query, trace seconds
}

func newProbeTransport(inner cluster.Transport, t *tracer) *probeTransport {
	return &probeTransport{inner: inner, t: t}
}

func (p *probeTransport) Name() string         { return p.inner.Name() }
func (p *probeTransport) Close()               { p.inner.Close() }
func (p *probeTransport) Errors() <-chan error { return p.inner.Errors() }

func (p *probeTransport) ServeLB(s *cluster.LBServer) (cluster.LBConn, error) {
	conn, err := p.inner.ServeLB(s)
	if err != nil {
		return nil, err
	}
	return &probeConn{p: p, inner: conn}, nil
}

func (p *probeTransport) ServeWorker(s *cluster.WorkerServer) (cluster.WorkerConn, error) {
	return p.inner.ServeWorker(s)
}

// probeConn forwards every LBConn method, including the ReusingLBConn
// and MembershipSource capabilities, so the data path takes the same
// branches it takes over the bare transport.
type probeConn struct {
	p     *probeTransport
	inner cluster.LBConn
}

// countErr counts a failed call that is not part of shutting down.
func (c *probeConn) countErr(ctx context.Context, err error) {
	if err != nil && ctx.Err() == nil && !errors.Is(err, context.Canceled) {
		c.p.t.wire.errors.Add(1)
	}
}

// Submit is the blocking single-query path, which the harness does not use.
func (c *probeConn) Submit(ctx context.Context, q cluster.QueryMsg) (cluster.QueryResponse, error) {
	return c.inner.Submit(ctx, q)
}

func (c *probeConn) SubmitBatch(ctx context.Context, req cluster.SubmitRequest) error {
	// A non-empty Pool marks queries the frontend migrates off a
	// retiring shard; only client submits end set-up and stamp queries.
	p, client := c.p, req.Pool == ""
	if client && p.first.Load() == nil && len(req.Queries) > 0 {
		p.first.CompareAndSwap(nil, &firstSubmit{proc: sampleProc(), ns: p.t.now(), arrival: req.Queries[0].Arrival})
	}
	t := p.t
	if t == nil {
		return c.inner.SubmitBatch(ctx, req)
	}
	start := t.now()
	err := c.inner.SubmitBatch(ctx, req)
	t.add("cluster.submit", -1, len(req.Queries), start, t.now())
	c.countErr(ctx, err)
	if err == nil && client {
		t.wire.submitted(req, start)
	}
	return err
}

func (c *probeConn) PollResults(ctx context.Context, req cluster.ResultsRequest) (cluster.ResultsResponse, error) {
	var resp cluster.ResultsResponse
	err := c.PollResultsInto(ctx, req, &resp)
	return resp, err
}

func (c *probeConn) PollResultsInto(ctx context.Context, req cluster.ResultsRequest, resp *cluster.ResultsResponse) error {
	t := c.p.t
	if t == nil {
		err := cluster.PollResultsIntoConn(ctx, c.inner, req, resp)
		c.p.results.add(resp.Results, err)
		return err
	}
	start := t.now()
	err := cluster.PollResultsIntoConn(ctx, c.inner, req, resp)
	end := t.now()
	c.p.results.add(resp.Results, err)
	t.add("cluster.poll", -1, len(resp.Results), start, end)
	c.countErr(ctx, err)
	t.wire.delivered(resp.Results, end)
	return err
}

func (c *probeConn) Pull(ctx context.Context, req cluster.PullRequest) (cluster.PullResponse, error) {
	var resp cluster.PullResponse
	err := c.PullInto(ctx, req, &resp)
	return resp, err
}

func (c *probeConn) PullInto(ctx context.Context, req cluster.PullRequest, resp *cluster.PullResponse) error {
	t := c.p.t
	if t == nil {
		return cluster.PullIntoConn(ctx, c.inner, req, resp)
	}
	start := t.now()
	err := cluster.PullIntoConn(ctx, c.inner, req, resp)
	end := t.now()
	name := "cluster.pull." + req.Role
	switch {
	case req.Drain:
		name = "cluster.drain"
	case req.Wait <= 0:
		name = "cluster.steal." + req.Role
	}
	t.add(name, -1, len(resp.Queries), start, end)
	c.countErr(ctx, err)
	if err == nil && !req.Drain {
		t.wire.pulled(req.Role, resp.Queries, end)
	}
	return err
}

func (c *probeConn) Complete(ctx context.Context, req cluster.CompleteRequest) error {
	t := c.p.t
	if t == nil {
		return c.inner.Complete(ctx, req)
	}
	start := t.now()
	t.wire.completed(req.Role, req.Items, start)
	err := c.inner.Complete(ctx, req)
	t.add("cluster.complete", -1, len(req.Items), start, t.now())
	c.countErr(ctx, err)
	return err
}

func (c *probeConn) Configure(ctx context.Context, req cluster.ConfigureLBRequest) error {
	t := c.p.t
	if t == nil {
		return c.inner.Configure(ctx, req)
	}
	start := t.now()
	err := c.inner.Configure(ctx, req)
	t.add("cluster.control", -1, 0, start, t.now())
	c.countErr(ctx, err)
	t.wire.epoch(req.RingEpoch)
	return err
}

func (c *probeConn) Stats(ctx context.Context) (cluster.LBStats, error) {
	t := c.p.t
	if t == nil {
		return c.inner.Stats(ctx)
	}
	start := t.now()
	st, err := c.inner.Stats(ctx)
	t.add("cluster.control", -1, 0, start, t.now())
	c.countErr(ctx, err)
	return st, err
}

func (c *probeConn) Membership(ctx context.Context) (cluster.MembershipResponse, error) {
	src, ok := c.inner.(cluster.MembershipSource)
	if !ok {
		return cluster.MembershipResponse{}, errors.New("perfbench: inner conn does not report membership")
	}
	t := c.p.t
	if t == nil {
		return src.Membership(ctx)
	}
	start := t.now()
	m, err := src.Membership(ctx)
	t.add("cluster.control", -1, 0, start, t.now())
	c.countErr(ctx, err)
	return m, err
}
