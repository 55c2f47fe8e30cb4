package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// LBConn is a client connection to the load balancer's data and
// control plane. Implementations: NewHTTPLBConn (persistent HTTP with
// a pluggable Codec) and NewLocalLBConn (in-process direct dispatch,
// zero serialization).
type LBConn interface {
	// Submit admits one query and blocks until it completes or drops.
	Submit(ctx context.Context, q QueryMsg) (QueryResponse, error)
	// SubmitBatch admits a batch of queries asynchronously; results
	// arrive via PollResults.
	SubmitBatch(ctx context.Context, req SubmitRequest) error
	// PollResults long-polls for completed results of batch-submitted
	// queries.
	PollResults(ctx context.Context, req ResultsRequest) (ResultsResponse, error)
	// Pull long-polls for up to req.Max queued queries.
	Pull(ctx context.Context, req PullRequest) (PullResponse, error)
	// Complete reports a finished batch.
	Complete(ctx context.Context, req CompleteRequest) error
	// Configure updates the LB policy knobs.
	Configure(ctx context.Context, req ConfigureLBRequest) error
	// Stats fetches the LB's control-plane report.
	Stats(ctx context.Context) (LBStats, error)
}

// ReusingLBConn is the optional buffer-reuse capability of an LBConn:
// the Into variants decode into a caller-owned response struct,
// reusing its slice capacity across calls instead of allocating fresh
// response slices per call. Callers on a hot loop keep one persistent
// response struct and go through PullResultsInto/PollResultsInto (the
// package-level helpers below fall back to the by-value methods on
// conns without the capability). The response is overwritten entirely
// on every call; anything the caller wants to retain across calls
// must be copied out first.
type ReusingLBConn interface {
	LBConn
	// PullInto is Pull with a caller-owned response buffer.
	PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error
	// PollResultsInto is PollResults with a caller-owned response
	// buffer.
	PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error
}

// MembershipSource is the optional membership-discovery capability of
// an LBConn: it reports the serving tier's current ring epoch and
// member list (with dial addresses and placement weights when known).
// Followers — standalone frontends and workers tracking an elastic
// tier — poll it cheaply (the response is a few dozen bytes) and act
// only when the epoch advances, so steady state costs one tiny read
// per poll interval and a membership flip propagates within one
// interval with no redials or operator intervention. It is a separate
// interface rather than an LBConn method so existing LBConn
// implementations (including test doubles outside this package) keep
// compiling; MembershipFromConn is the capability-checking accessor.
type MembershipSource interface {
	// Membership returns the current ring epoch and member list.
	Membership(ctx context.Context) (MembershipResponse, error)
}

// MembershipFromConn fetches membership via the conn's capability if
// it has one; ok is false when the conn cannot report membership.
func MembershipFromConn(ctx context.Context, conn LBConn) (m MembershipResponse, ok bool, err error) {
	src, has := conn.(MembershipSource)
	if !has {
		return MembershipResponse{}, false, nil
	}
	m, err = src.Membership(ctx)
	return m, true, err
}

// PullIntoConn pulls via the conn's buffer-reusing fast path when it
// has one, falling back to the by-value Pull otherwise. resp is
// overwritten entirely either way.
func PullIntoConn(ctx context.Context, conn LBConn, req PullRequest, resp *PullResponse) error {
	if rc, ok := conn.(ReusingLBConn); ok {
		return rc.PullInto(ctx, req, resp)
	}
	out, err := conn.Pull(ctx, req)
	*resp = out
	return err
}

// PollResultsIntoConn polls via the conn's buffer-reusing fast path
// when it has one, falling back to the by-value PollResults otherwise.
func PollResultsIntoConn(ctx context.Context, conn LBConn, req ResultsRequest, resp *ResultsResponse) error {
	if rc, ok := conn.(ReusingLBConn); ok {
		return rc.PollResultsInto(ctx, req, resp)
	}
	out, err := conn.PollResults(ctx, req)
	*resp = out
	return err
}

// WorkerConn is a client connection to one worker's control plane.
type WorkerConn interface {
	// Configure reassigns the worker's role and batch size.
	Configure(ctx context.Context, req ConfigureWorkerRequest) error
	// Stats fetches the worker's control-plane report.
	Stats(ctx context.Context) (WorkerStats, error)
}

// Transport names accepted by NewTransport and the -transport flags.
const (
	TransportJSON   = "json"   // HTTP with the JSON codec
	TransportBinary = "binary" // HTTP with the binary codec
	TransportInproc = "inproc" // in-process direct dispatch
	TransportTCP    = "tcp"    // raw framed TCP with the binary codec
)

// Transport assembles a cluster's connections: it makes servers
// reachable and hands out conns for the workers, the controller, and
// the replay client. The HTTP transports serve components on loopback
// listeners and connect them with persistent keep-alive connections;
// the TCP transport uses persistent multiplexed framed connections;
// the in-process transport skips the network and the codec entirely.
type Transport interface {
	// Name returns the transport name ("json", "binary", "inproc",
	// "tcp").
	Name() string
	// ServeLB makes the LB reachable and returns a conn to it.
	ServeLB(s *LBServer) (LBConn, error)
	// ServeWorker makes a worker's control plane reachable.
	ServeWorker(s *WorkerServer) (WorkerConn, error)
	// Close tears down listeners (no-op for inproc).
	Close()
	// Errors exposes fatal transport failures (a connection lost for
	// good, dial retries exhausted). Harnesses watch it so a dead
	// transport aborts the run instead of silently dropping queries.
	// A nil channel means the transport never reports (inproc cannot
	// fail; HTTP failures surface per call).
	Errors() <-chan error
}

// NewTransport builds a transport by name. Empty defaults to JSON
// over HTTP, the compatibility wire path.
func NewTransport(name string) (Transport, error) {
	switch name {
	case "", TransportJSON:
		return &httpTransport{name: TransportJSON, codec: CodecJSON, client: NewWireClient(0)}, nil
	case TransportBinary:
		return &httpTransport{name: TransportBinary, codec: CodecBinary, client: NewWireClient(0)}, nil
	case TransportInproc:
		return localTransport{}, nil
	case TransportTCP:
		return newTCPTransport(), nil
	}
	return nil, fmt.Errorf("cluster: unknown transport %q (have json, binary, inproc, tcp)", name)
}

// DialLB connects to a standalone load balancer process. transport is
// "http" (or empty) for the HTTP wire path — addr is a base URL like
// "http://host:8100" — or "tcp" for the framed TCP path, with addr a
// "host:port". codec selects the HTTP wire codec; the tcp transport
// speaks only the binary codec and ignores it. The cmd binaries use it
// behind their -transport and -codec flags.
func DialLB(transport, addr string, codec Codec) (LBConn, error) {
	switch transport {
	case "", "http":
		return NewHTTPLBConn(NewWireClient(0), addr, codec), nil
	case TransportTCP:
		if err := checkTCPAddr(addr); err != nil {
			return nil, err
		}
		return NewTCPLBConn(addr), nil
	}
	return nil, fmt.Errorf("cluster: unknown dial transport %q (have http, tcp)", transport)
}

// DialWorker connects to a standalone worker's control plane; see
// DialLB for the transport names and the codec.
func DialWorker(transport, addr string, codec Codec) (WorkerConn, error) {
	switch transport {
	case "", "http":
		return NewHTTPWorkerConn(NewWireClient(0), addr, codec), nil
	case TransportTCP:
		if err := checkTCPAddr(addr); err != nil {
			return nil, err
		}
		return NewTCPWorkerConn(addr), nil
	}
	return nil, fmt.Errorf("cluster: unknown dial transport %q (have http, tcp)", transport)
}

// NewWireClient returns an HTTP client tuned for the cluster data
// path: persistent connections with a per-host idle pool large enough
// that every worker's long-poll and every in-flight submit batch
// reuses a warm connection instead of redialing. A zero timeout
// defaults to 5 minutes (long polls hold requests open).
func NewWireClient(timeout time.Duration) *http.Client {
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 128
	return &http.Client{Transport: tr, Timeout: timeout}
}

// httpTransport serves components on loopback HTTP listeners.
type httpTransport struct {
	name   string
	codec  Codec
	client *http.Client
	srvs   []*httptest.Server
}

func (t *httpTransport) Name() string { return t.name }

func (t *httpTransport) ServeLB(s *LBServer) (LBConn, error) {
	srv := httptest.NewServer(s.Mux())
	t.srvs = append(t.srvs, srv)
	return NewHTTPLBConn(t.client, srv.URL, t.codec), nil
}

func (t *httpTransport) ServeWorker(s *WorkerServer) (WorkerConn, error) {
	srv := httptest.NewServer(s.Mux())
	t.srvs = append(t.srvs, srv)
	return NewHTTPWorkerConn(t.client, srv.URL, t.codec), nil
}

func (t *httpTransport) Close() {
	for _, s := range t.srvs {
		s.Close()
	}
	t.srvs = nil
}

func (t *httpTransport) Errors() <-chan error { return nil }

// localTransport wires components with direct calls.
type localTransport struct{}

func (localTransport) Name() string                        { return TransportInproc }
func (localTransport) ServeLB(s *LBServer) (LBConn, error) { return NewLocalLBConn(s), nil }
func (localTransport) ServeWorker(s *WorkerServer) (WorkerConn, error) {
	return NewLocalWorkerConn(s), nil
}
func (localTransport) Close() {}

func (localTransport) Errors() <-chan error { return nil }

// --- HTTP conns ---

// httpPeer is the shared request machinery of the HTTP conns.
type httpPeer struct {
	client *http.Client
	base   string
	codec  Codec
}

// call POSTs in (codec-encoded) to path and decodes the response into
// out when non-nil. The response body is always fully consumed so the
// underlying connection returns to the keep-alive pool.
func (p httpPeer) call(ctx context.Context, path string, in, out interface{}) error {
	body, err := p.codec.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: marshal %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: request %s: %w", path, err)
	}
	req.Header.Set("Content-Type", p.codec.ContentType())
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: post %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("cluster: post %s: status %s", path, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("cluster: read %s: %w", path, err)
	}
	if out == nil {
		return nil
	}
	if err := p.codec.Unmarshal(data, out); err != nil {
		return fmt.Errorf("cluster: decode %s: %w", path, err)
	}
	return nil
}

// get GETs path with an Accept header selecting the codec.
func (p httpPeer) get(ctx context.Context, path string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return fmt.Errorf("cluster: request %s: %w", path, err)
	}
	req.Header.Set("Accept", p.codec.ContentType())
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: get %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("cluster: get %s: status %s", path, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("cluster: read %s: %w", path, err)
	}
	return p.codec.Unmarshal(data, out)
}

type httpLBConn struct{ httpPeer }

// NewHTTPLBConn connects to a load balancer at baseURL using the
// given codec. Pass a NewWireClient (or any keep-alive client); nil
// uses a default wire client.
func NewHTTPLBConn(client *http.Client, baseURL string, codec Codec) LBConn {
	if client == nil {
		client = NewWireClient(0)
	}
	if codec == nil {
		codec = CodecJSON
	}
	return httpLBConn{httpPeer{client: client, base: baseURL, codec: codec}}
}

func (c httpLBConn) Submit(ctx context.Context, q QueryMsg) (QueryResponse, error) {
	var resp QueryResponse
	err := c.call(ctx, "/query", &q, &resp)
	return resp, err
}

func (c httpLBConn) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	return c.call(ctx, "/submit", &req, nil)
}

func (c httpLBConn) PollResults(ctx context.Context, req ResultsRequest) (ResultsResponse, error) {
	var resp ResultsResponse
	err := c.call(ctx, "/results", &req, &resp)
	return resp, err
}

func (c httpLBConn) Pull(ctx context.Context, req PullRequest) (PullResponse, error) {
	var resp PullResponse
	err := c.call(ctx, "/pull", &req, &resp)
	return resp, err
}

// PullInto and PollResultsInto decode into the caller's struct,
// reusing slice capacity under the binary codec (which overwrites
// every field); the JSON codec merges into dirty targets, so it falls
// back to a fresh decode.

func (c httpLBConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	if c.codec.Name() != CodecNameBinary {
		out, err := c.Pull(ctx, req)
		*resp = out
		return err
	}
	return c.call(ctx, "/pull", &req, resp)
}

func (c httpLBConn) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	if c.codec.Name() != CodecNameBinary {
		out, err := c.PollResults(ctx, req)
		*resp = out
		return err
	}
	return c.call(ctx, "/results", &req, resp)
}

func (c httpLBConn) Complete(ctx context.Context, req CompleteRequest) error {
	return c.call(ctx, "/complete", &req, nil)
}

func (c httpLBConn) Configure(ctx context.Context, req ConfigureLBRequest) error {
	return c.call(ctx, "/configure", &req, nil)
}

func (c httpLBConn) Stats(ctx context.Context) (LBStats, error) {
	var out LBStats
	err := c.get(ctx, "/stats", &out)
	return out, err
}

func (c httpLBConn) Membership(ctx context.Context) (MembershipResponse, error) {
	var out MembershipResponse
	err := c.get(ctx, "/membership", &out)
	return out, err
}

type httpWorkerConn struct{ httpPeer }

// NewHTTPWorkerConn connects to a worker's control plane at baseURL.
func NewHTTPWorkerConn(client *http.Client, baseURL string, codec Codec) WorkerConn {
	if client == nil {
		client = NewWireClient(0)
	}
	if codec == nil {
		codec = CodecJSON
	}
	return httpWorkerConn{httpPeer{client: client, base: baseURL, codec: codec}}
}

func (c httpWorkerConn) Configure(ctx context.Context, req ConfigureWorkerRequest) error {
	return c.call(ctx, "/configure", &req, nil)
}

func (c httpWorkerConn) Stats(ctx context.Context) (WorkerStats, error) {
	var out WorkerStats
	err := c.get(ctx, "/stats", &out)
	return out, err
}

// --- in-process conns ---

type localLBConn struct{ s *LBServer }

// NewLocalLBConn returns an LBConn that dispatches into the server
// with direct calls — the in-process fast path: no serialization, no
// sockets, no goroutine-per-request.
func NewLocalLBConn(s *LBServer) LBConn { return localLBConn{s: s} }

func (c localLBConn) Submit(ctx context.Context, q QueryMsg) (QueryResponse, error) {
	resp, ok := c.s.Submit(ctx, q)
	if !ok {
		return QueryResponse{}, ctx.Err()
	}
	return resp, nil
}

func (c localLBConn) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	c.s.SubmitBatchReq(req)
	return ctx.Err()
}

func (c localLBConn) PollResults(ctx context.Context, req ResultsRequest) (ResultsResponse, error) {
	return c.s.PollResults(ctx, req), ctx.Err()
}

func (c localLBConn) Pull(ctx context.Context, req PullRequest) (PullResponse, error) {
	return c.s.Pull(ctx, req), ctx.Err()
}

func (c localLBConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	c.s.PullInto(ctx, req, resp)
	return ctx.Err()
}

func (c localLBConn) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	c.s.PollResultsInto(ctx, req, resp)
	return ctx.Err()
}

func (c localLBConn) Complete(ctx context.Context, req CompleteRequest) error {
	c.s.Complete(req)
	return ctx.Err()
}

func (c localLBConn) Configure(ctx context.Context, req ConfigureLBRequest) error {
	c.s.Configure(req)
	return ctx.Err()
}

func (c localLBConn) Stats(ctx context.Context) (LBStats, error) {
	return c.s.Stats(), ctx.Err()
}

func (c localLBConn) Membership(ctx context.Context) (MembershipResponse, error) {
	return c.s.Membership(), ctx.Err()
}

type localWorkerConn struct{ s *WorkerServer }

// NewLocalWorkerConn returns a WorkerConn dispatching direct calls.
func NewLocalWorkerConn(s *WorkerServer) WorkerConn { return localWorkerConn{s: s} }

func (c localWorkerConn) Configure(ctx context.Context, req ConfigureWorkerRequest) error {
	c.s.Configure(req)
	return ctx.Err()
}

func (c localWorkerConn) Stats(ctx context.Context) (WorkerStats, error) {
	return c.s.Stats(), ctx.Err()
}
