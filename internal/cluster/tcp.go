package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the raw-TCP framed transport: the same wire
// messages as the HTTP transport, but over persistent TCP connections
// with length-prefixed frames and multiplexed request/response
// correlation instead of net/http request plumbing. It speaks only
// the binary codec, called directly rather than through the Codec
// interface, so a request passed to a conn method never has to leave
// the caller's stack.
//
// Frame layout (both directions):
//
//	uint32 big-endian  body length (header + payload, ≤ maxFrameBody)
//	byte               frame kind (request, response, error)
//	byte               method (methodQuery … methodWorkerStats)
//	byte               codec id (always binary; the server answers any
//	                   other id with an error frame)
//	uint64 big-endian  request id (responses echo it)
//	payload            binary-encoded message, or UTF-8 error text
//
// A client writes request frames on one persistent connection and
// correlates responses by id, so any number of in-flight calls —
// including server-side-blocking long polls — share the connection.
// The server dispatches each request frame to its own goroutine and
// serializes response frames through a per-connection writer.

const (
	// frameHeaderLen is the fixed body header: kind + method + codec
	// id + request id.
	frameHeaderLen = 11
	// maxFrameBody caps the declared body length. Decoders reject
	// anything larger before allocating, so a corrupted or hostile
	// length prefix cannot trigger a huge allocation.
	maxFrameBody = 8 << 20
	// frameReadChunk is the read granularity when the body buffer must
	// grow: bytes are copied in at most this many at a time, so the
	// buffer never runs more than one chunk (plus append's geometric
	// slack) ahead of what actually arrived.
	frameReadChunk = 4096
)

// Frame kinds.
const (
	frameRequest byte = iota + 1
	frameResponse
	frameError
)

// Methods multiplexed over one connection (the TCP analogue of the
// HTTP mux paths).
const (
	methodQuery byte = iota + 1
	methodSubmit
	methodResults
	methodPull
	methodComplete
	methodConfigureLB
	methodLBStats
	methodConfigureWorker
	methodWorkerStats
	methodMembership
	methodMax = methodMembership
)

// Codec ids on the wire. The JSON id is still a well-formed header
// byte, so a JSON-codec client gets an error frame naming the problem
// rather than a dropped connection; only binary frames are served.
const (
	codecIDJSON byte = iota + 1
	codecIDBinary
	codecIDMax = codecIDBinary
)

// ErrTransportClosed is returned by calls on a closed TCP conn or
// transport.
var ErrTransportClosed = errors.New("cluster: transport closed")

// framePool recycles frame buffers across reads and writes. All
// returns go through putFrame, which poisons the buffer first under
// the poolpoison build tag — anything still aliasing a recycled frame
// (a decoded message that kept a payload reference, a response read
// after its call finished) turns to garbage in tests instead of
// silently decoding stale bytes.
var framePool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

func getFrame() *[]byte { return framePool.Get().(*[]byte) }

func putFrame(bp *[]byte) {
	poisonFrame(*bp)
	framePool.Put(bp)
}

// frame is a decoded frame header plus its payload (aliasing the read
// buffer).
type frame struct {
	kind, method, codec byte
	id                  uint64
	payload             []byte
}

// readFrame reads one length-prefixed frame, reusing buf when it is
// large enough. It returns the (possibly grown) buffer for the next
// call. The body buffer grows only as bytes actually arrive, so a
// lying length prefix wastes at most ~2x the received bytes. The
// length prefix is read in place from the reader's buffer: a local
// array handed to io.ReadFull would escape, one allocation per frame.
func readFrame(br *bufio.Reader, buf []byte) (frame, []byte, error) {
	lenb, err := br.Peek(4)
	if err != nil {
		if len(lenb) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, buf, err
	}
	n := int(binary.BigEndian.Uint32(lenb))
	if _, err := br.Discard(4); err != nil {
		return frame{}, buf, err
	}
	if n < frameHeaderLen {
		return frame{}, buf, fmt.Errorf("cluster: tcp frame body %dB shorter than %dB header", n, frameHeaderLen)
	}
	if n > maxFrameBody {
		return frame{}, buf, fmt.Errorf("cluster: tcp frame body %dB exceeds %dB cap", n, maxFrameBody)
	}
	if cap(buf) >= n {
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return frame{}, buf[:0], fmt.Errorf("cluster: tcp frame truncated: %w", err)
		}
	} else {
		buf = buf[:0]
		var chunk [frameReadChunk]byte
		for len(buf) < n {
			step := min(n-len(buf), len(chunk))
			m, err := io.ReadFull(br, chunk[:step])
			buf = append(buf, chunk[:m]...)
			if err != nil {
				return frame{}, buf, fmt.Errorf("cluster: tcp frame truncated: %w", err)
			}
		}
	}
	f := frame{
		kind:    buf[0],
		method:  buf[1],
		codec:   buf[2],
		id:      binary.BigEndian.Uint64(buf[3:frameHeaderLen]),
		payload: buf[frameHeaderLen:n],
	}
	switch {
	case f.kind < frameRequest || f.kind > frameError:
		return frame{}, buf, fmt.Errorf("cluster: tcp frame kind %d invalid", f.kind)
	case f.method < methodQuery || f.method > methodMax:
		return frame{}, buf, fmt.Errorf("cluster: tcp frame method %d invalid", f.method)
	case f.codec < codecIDJSON || f.codec > codecIDMax:
		return frame{}, buf, fmt.Errorf("cluster: tcp frame codec %d invalid", f.codec)
	}
	return f, buf, nil
}

// appendFrame encodes a whole frame into b (which must be the empty
// start of a frame buffer): length prefix, header, and either the
// binary-encoded msg or the error text.
func appendFrame(b []byte, kind, method byte, id uint64, msg interface{}, errText string) ([]byte, error) {
	b = append(b, 0, 0, 0, 0, kind, method, codecIDBinary)
	b = binary.BigEndian.AppendUint64(b, id)
	switch {
	case errText != "":
		b = append(b, errText...)
	case msg != nil:
		var err error
		if b, err = (binaryCodec{}).MarshalAppend(b, msg); err != nil {
			return b, err
		}
	}
	if len(b)-4 > maxFrameBody {
		return b, fmt.Errorf("cluster: tcp frame body %dB exceeds %dB cap", len(b)-4, maxFrameBody)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b, nil
}

// --- server ---

// tcpService is the server side of the protocol: newRequest returns
// the message a method decodes into (nil for methods with no request
// payload, ok=false for methods the service does not serve), and
// serve runs the fully decoded request. Splitting decode from serve
// lets the dispatcher recycle the frame buffer before serve blocks —
// long polls hold requests open for seconds and must not pin pooled
// buffers.
//
// newRequest hands out pooled structs; the dispatcher owns them and
// returns both request and response to the pools via ReleaseMessage
// once the response frame is written. Handlers therefore must not
// retain anything a request references past serve's return (strings
// are immutable and exempt; the LB interns feature slices into the
// collector arena).
//
// blocking marks the methods that can park for a long-poll wait; only
// those are served off the read loop, by goroutines the connection
// reuses. Quick methods (submit, complete, configure, stats) serve
// inline on the read loop, saving the handoff and letting consecutive
// responses share one coalesced flush.
type tcpService interface {
	newRequest(method byte) (msg interface{}, ok bool)
	serve(ctx context.Context, method byte, req interface{}) (interface{}, error)
	blocking(method byte) bool
}

// TCPServer serves a component's API over the framed TCP protocol.
// Construct one with ServeLBTCP or ServeWorkerTCP.
type TCPServer struct {
	lis    net.Listener
	svc    tcpService
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ServeLBTCP listens on addr (e.g. ":8100", or "127.0.0.1:0" for an
// ephemeral loopback port) and serves the load balancer's full data
// and control plane over framed TCP.
func ServeLBTCP(addr string, s *LBServer) (*TCPServer, error) {
	return newTCPServer(addr, lbService{s})
}

// ServeWorkerTCP listens on addr and serves a worker's control plane
// over framed TCP.
func ServeWorkerTCP(addr string, s *WorkerServer) (*TCPServer, error) {
	return newTCPServer(addr, workerService{s})
}

// lbService adapts an LBServer to the framed-TCP protocol.
type lbService struct{ s *LBServer }

func (lbService) newRequest(method byte) (interface{}, bool) {
	switch method {
	case methodQuery:
		return getQueryMsg(), true
	case methodSubmit:
		return getSubmitRequest(), true
	case methodResults:
		return getResultsRequest(), true
	case methodPull:
		return getPullRequest(), true
	case methodComplete:
		return getCompleteRequest(), true
	case methodConfigureLB:
		return getConfigureLBRequest(), true
	case methodLBStats:
		return nil, true
	case methodMembership:
		return nil, true
	}
	return nil, false
}

func (lbService) blocking(method byte) bool {
	// Submit long-polls for its query's resolution; results and pull
	// park on their wait windows. Everything else returns promptly.
	return method == methodQuery || method == methodResults || method == methodPull
}

func (l lbService) serve(ctx context.Context, method byte, req interface{}) (interface{}, error) {
	switch method {
	case methodQuery:
		resp, ok := l.s.Submit(ctx, *req.(*QueryMsg))
		if !ok {
			return nil, errors.New("query cancelled")
		}
		return &resp, nil
	case methodSubmit:
		l.s.SubmitBatchReq(*req.(*SubmitRequest))
		return nil, nil
	case methodResults:
		resp := getResultsResponse()
		l.s.PollResultsInto(ctx, *req.(*ResultsRequest), resp)
		return resp, nil
	case methodPull:
		resp := getPullResponse()
		l.s.PullInto(ctx, *req.(*PullRequest), resp)
		return resp, nil
	case methodComplete:
		l.s.Complete(*req.(*CompleteRequest))
		return nil, nil
	case methodConfigureLB:
		l.s.Configure(*req.(*ConfigureLBRequest))
		return nil, nil
	case methodLBStats:
		out := l.s.Stats()
		return &out, nil
	case methodMembership:
		out := l.s.Membership()
		return &out, nil
	}
	return nil, fmt.Errorf("method %d not served by the load balancer", method)
}

// workerService adapts a WorkerServer's control plane to the
// framed-TCP protocol.
type workerService struct{ s *WorkerServer }

func (workerService) newRequest(method byte) (interface{}, bool) {
	switch method {
	case methodConfigureWorker:
		return getConfigureWorkerRequest(), true
	case methodWorkerStats:
		return nil, true
	}
	return nil, false
}

func (workerService) blocking(byte) bool { return false }

func (w workerService) serve(ctx context.Context, method byte, req interface{}) (interface{}, error) {
	switch method {
	case methodConfigureWorker:
		w.s.Configure(*req.(*ConfigureWorkerRequest))
		return nil, nil
	case methodWorkerStats:
		out := w.s.Stats()
		return &out, nil
	}
	return nil, fmt.Errorf("method %d not served by the worker", method)
}

func newTCPServer(addr string, svc tcpService) (*TCPServer, error) {
	lis, err := net.Listen("tcp", tcpAddr(addr))
	if err != nil {
		return nil, fmt.Errorf("cluster: tcp listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &TCPServer{
		lis: lis, svc: svc, ctx: ctx, cancel: cancel,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address ("host:port").
func (s *TCPServer) Addr() string { return s.lis.Addr().String() }

// Close stops accepting, closes every connection (cancelling in-flight
// long polls), and waits for the serving goroutines to drain.
func (s *TCPServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()
	s.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 32<<10)
	w := &frameWriter{conn: conn, bw: bufio.NewWriterSize(conn, 32<<10)}
	// Unbuffered: a send succeeds only when a blocking-frame server is
	// idle and receiving.
	blocked := make(chan blockingFrame)
	for {
		bp := getFrame()
		f, buf, err := readFrame(br, (*bp)[:0])
		*bp = buf
		if err != nil {
			putFrame(bp)
			return // closed, EOF, or protocol violation: drop the conn
		}
		if f.kind != frameRequest {
			putFrame(bp)
			return
		}
		if !s.svc.blocking(f.method) {
			// Quick methods serve inline: no handoff, and consecutive
			// responses on a busy connection share one coalesced flush.
			s.dispatch(ctx, w, f, bp)
			continue
		}
		// Long polls run off the read loop so they never block the
		// connection's other in-flight requests. An idle server of
		// this connection takes the frame; only when every one is busy
		// does a new one start, so the goroutine count tracks the
		// peak of concurrent long polls, not the frame count.
		select {
		case blocked <- blockingFrame{f, bp}:
		default:
			s.wg.Add(1)
			go s.serveBlocking(ctx, w, blocked, f, bp)
		}
	}
}

// blockingFrame is a long-poll request frame handed from a
// connection's read loop to one of its blocking-frame servers.
type blockingFrame struct {
	f  frame
	bp *[]byte
}

// serveBlocking dispatches f, then waits idle for the connection's
// next long-poll frame, until the connection's context ends.
func (s *TCPServer) serveBlocking(ctx context.Context, w *frameWriter, frames <-chan blockingFrame, f frame, bp *[]byte) {
	defer s.wg.Done()
	for {
		s.dispatch(ctx, w, f, bp)
		select {
		case next := <-frames:
			f, bp = next.f, next.bp
		case <-ctx.Done():
			return
		}
	}
}

// decodeRequest decodes a request frame's payload into the pooled
// message its method takes (nil for methods with no payload). Only
// binary-codec frames are served; any other codec id, an unknown
// method, or a malformed payload is an error the caller answers with
// an error frame, keeping the connection open.
func decodeRequest(svc tcpService, f frame) (interface{}, error) {
	if f.codec != codecIDBinary {
		return nil, fmt.Errorf("codec %d not supported: the tcp transport speaks only the binary codec", f.codec)
	}
	req, known := svc.newRequest(f.method)
	if !known {
		return nil, fmt.Errorf("method %d not supported", f.method)
	}
	if req != nil {
		// The binary decoder overwrites every field, so the pooled
		// request's dirty capacity is reused as is.
		if err := (binaryCodec{}).Unmarshal(f.payload, req); err != nil {
			ReleaseMessage(req)
			return nil, err
		}
	}
	return req, nil
}

// dispatch runs one request to completion and writes its response.
// The frame buffer is recycled as soon as the request is decoded —
// before serve blocks — and the pooled request/response messages go
// back to their pools once the response frame is written (handlers
// must not retain them; see tcpService).
func (s *TCPServer) dispatch(ctx context.Context, w *frameWriter, f frame, bp *[]byte) {
	req, err := decodeRequest(s.svc, f)
	putFrame(bp)
	if err != nil {
		w.write(frameError, f.method, f.id, nil, err.Error())
		return
	}
	resp, err := s.svc.serve(ctx, f.method, req)
	if req != nil {
		ReleaseMessage(req)
	}
	if err != nil {
		w.write(frameError, f.method, f.id, nil, err.Error())
		return
	}
	w.write(frameResponse, f.method, f.id, resp, "")
	if resp != nil {
		ReleaseMessage(resp)
	}
}

// frameWriter serializes response frames onto one connection. The
// first write failure closes the connection: responses can never be
// delivered again, so continuing to read and execute the peer's
// requests would apply side effects the peer never hears about.
// Closing unblocks the connection's read loop, which tears the
// serving state down and cancels in-flight handlers.
//
// Flushes are coalesced: writers announce themselves on the atomic
// counter before taking the lock, and only the writer that brings the
// counter back to zero flushes. Under a burst of concurrent responses
// (the sharded frontend resolving a fan-out, a worker group's pulls
// firing together) the buffered frames go out in one syscall instead
// of one per response; a lone writer still flushes immediately, so
// latency is unchanged when idle.
type frameWriter struct {
	conn    net.Conn
	writers atomic.Int32 // announced-but-not-yet-written frames
	mu      sync.Mutex
	bw      *bufio.Writer
	err     error
}

func (w *frameWriter) write(kind, method byte, id uint64, msg interface{}, errText string) {
	bp := getFrame()
	b, err := appendFrame((*bp)[:0], kind, method, id, msg, errText)
	if err != nil {
		// Encoding failed: report the failure instead of the payload.
		b, err = appendFrame(b[:0], frameError, method, id, nil, err.Error())
	}
	if err == nil {
		w.writers.Add(1)
		w.mu.Lock()
		wasDead := w.err != nil
		if w.err == nil {
			if _, werr := w.bw.Write(b); werr != nil {
				w.err = werr
			}
		}
		// Last announced writer flushes for everyone; any writer that
		// announced after our Add(1) is guaranteed to reach its own
		// flush check, so buffered frames never strand.
		if w.writers.Add(-1) == 0 && w.err == nil {
			w.err = w.bw.Flush()
		}
		if w.err != nil && !wasDead {
			w.conn.Close()
		}
		w.mu.Unlock()
	}
	*bp = b
	putFrame(bp)
}

// --- client ---

// tcpDialAttempts bounds connection-establishment retries before a
// call fails and the transport reports the error.
const tcpDialAttempts = 5

// tcpClient multiplexes calls over one persistent framed connection,
// redialing (with backoff) when the connection is lost.
type tcpClient struct {
	addr string
	errs chan<- error // fatal transport errors (nil: unreported)

	// closed is atomic so Close takes effect immediately even while
	// a dial-retry cycle is in flight.
	closed atomic.Bool

	mu      sync.Mutex
	cs      *tcpConnState // nil when disconnected
	dialing chan struct{} // non-nil while one caller redials
}

// tcpConnState is the per-connection half of the client: the
// correlation slot table and the writer, both tied to one net.Conn's
// lifetime.
//
// Correlation is by reusable slot, not by per-call channel: a frame
// id encodes a slot index (low 32 bits) and that slot's generation
// (high 32 bits). A call acquires a free slot, bumps nothing, and
// waits on the slot's persistent 1-buffered channel; releasing the
// slot increments its generation, so a response that arrives after
// its call was cancelled fails the generation check and is discarded
// instead of being delivered to the slot's next occupant. The table
// grows to the connection's high-water concurrency and is then
// allocation-free.
type tcpConnState struct {
	client *tcpClient
	conn   net.Conn
	bw     *bufio.Writer

	// writers counts announced-but-not-yet-written request frames for
	// coalesced flushing (same discipline as frameWriter).
	writers atomic.Int32

	mu    sync.Mutex
	slots []*tcpSlot
	free  []uint32 // free slot indexes, LIFO for cache warmth
	dead  bool
	err   error
}

// tcpSlot is one reusable waiter: the channel survives across calls.
type tcpSlot struct {
	ch   chan tcpResult
	gen  uint32
	busy bool
}

// acquireSlotLocked returns a slot and the frame id encoding it.
// Callers must hold cs.mu.
func (cs *tcpConnState) acquireSlotLocked() (*tcpSlot, uint64) {
	var idx uint32
	if n := len(cs.free); n > 0 {
		idx = cs.free[n-1]
		cs.free = cs.free[:n-1]
	} else {
		idx = uint32(len(cs.slots))
		cs.slots = append(cs.slots, &tcpSlot{ch: make(chan tcpResult, 1)})
	}
	sl := cs.slots[idx]
	sl.busy = true
	return sl, uint64(sl.gen)<<32 | uint64(idx)
}

// releaseSlotLocked retires a call's slot: the generation bump
// invalidates any response still in flight, and a result that raced
// into the buffer is drained so the next occupant starts clean.
// Callers must hold cs.mu.
func (cs *tcpConnState) releaseSlotLocked(id uint64) {
	idx := uint32(id)
	sl := cs.slots[idx]
	sl.busy = false
	sl.gen++
	select {
	case res := <-sl.ch:
		if res.bp != nil {
			putFrame(res.bp)
		}
	default:
	}
	cs.free = append(cs.free, idx)
}

type tcpResult struct {
	bp      *[]byte // pooled payload buffer (nil on error)
	payload []byte
	err     error
}

func newTCPClient(addr string, errs chan<- error) *tcpClient {
	return &tcpClient{addr: tcpAddr(addr), errs: errs}
}

// tcpAddr strips an optional tcp:// scheme so flags accept both
// "host:port" and "tcp://host:port".
func tcpAddr(addr string) string {
	return strings.TrimPrefix(addr, "tcp://")
}

// checkTCPAddr rejects addresses carrying a non-tcp scheme before
// they reach the dialer, where an http:// base URL (the HTTP flags'
// default) would otherwise burn the full retry budget resolving a
// nonsense host and fail without naming the actual mistake.
func checkTCPAddr(addr string) error {
	if i := strings.Index(addr, "://"); i >= 0 && addr[:i] != "tcp" {
		return fmt.Errorf("cluster: %q has scheme %q — the tcp transport takes host:port (or tcp://host:port) addresses", addr, addr[:i])
	}
	return nil
}

func (c *tcpClient) report(err error) {
	if c.errs == nil || c.closed.Load() {
		return // failures after Close are teardown, not faults
	}
	select {
	case c.errs <- err:
	default:
	}
}

// connState returns the live connection state, dialing if
// disconnected. Dialing is single-flight and runs WITHOUT holding
// c.mu, so concurrent callers wait on a channel and stay
// interruptible by their own contexts instead of queueing
// uninterruptibly on the mutex through a multi-second retry cycle.
func (c *tcpClient) connState(ctx context.Context) (*tcpConnState, error) {
	for {
		c.mu.Lock()
		if c.closed.Load() {
			c.mu.Unlock()
			return nil, ErrTransportClosed
		}
		if c.cs != nil {
			cs := c.cs
			c.mu.Unlock()
			return cs, nil
		}
		if c.dialing == nil {
			// This caller dials; everyone else waits on done.
			done := make(chan struct{})
			c.dialing = done
			c.mu.Unlock()

			cs, err := c.dial(ctx)
			c.mu.Lock()
			c.dialing = nil
			if err == nil {
				if c.closed.Load() {
					err = ErrTransportClosed
					cs.conn.Close()
				} else {
					c.cs = cs
					go cs.readLoop()
				}
			}
			c.mu.Unlock()
			close(done)
			if err != nil {
				return nil, err
			}
			continue
		}
		done := c.dialing
		c.mu.Unlock()
		select {
		case <-done:
			// Re-check: the dial succeeded or this caller retries it.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// dial establishes one connection, retrying with backoff. It holds no
// client locks; the retry loop aborts early when the client is closed
// or ctx is cancelled. Exhausting the retries is a fatal transport
// error: it is pushed to the error channel and returned.
func (c *tcpClient) dial(ctx context.Context) (*tcpConnState, error) {
	var err error
	backoff := 10 * time.Millisecond
	for i := 0; i < tcpDialAttempts; i++ {
		if c.closed.Load() {
			return nil, ErrTransportClosed
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if i > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", c.addr, 2*time.Second)
		if err != nil {
			continue
		}
		return &tcpConnState{
			client: c, conn: conn,
			bw: bufio.NewWriterSize(conn, 32<<10),
		}, nil
	}
	err = fmt.Errorf("cluster: tcp dial %s: %w (after %d attempts)", c.addr, err, tcpDialAttempts)
	c.report(err)
	return nil, err
}

// call performs one request/response round trip. in may be nil (empty
// request payload); out may be nil (response payload discarded).
// Neither is retained past the call: in is encoded into a pooled frame
// before the call blocks and out is decoded into before it returns,
// so callers can pass pointers to their own stack variables and the
// round trip allocates nothing.
func (c *tcpClient) call(ctx context.Context, method byte, in, out interface{}) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Encode the request frame before touching any lock; the request
	// id is patched in once assigned.
	bp := getFrame()
	b, err := appendFrame((*bp)[:0], frameRequest, method, 0, in, "")
	if err != nil {
		*bp = b
		putFrame(bp)
		return fmt.Errorf("cluster: tcp marshal method %d: %w", method, err)
	}

	cs, err := c.connState(ctx)
	if err != nil {
		*bp = b
		putFrame(bp)
		return err
	}

	// Announce the pending write before taking the lock so concurrent
	// callers' frames share one coalesced flush (see frameWriter).
	cs.writers.Add(1)
	cs.mu.Lock()
	if cs.dead {
		cs.writers.Add(-1)
		err := cs.err
		cs.mu.Unlock()
		*bp = b
		putFrame(bp)
		return err
	}
	sl, id := cs.acquireSlotLocked()
	binary.BigEndian.PutUint64(b[7:7+8], id)
	_, werr := cs.bw.Write(b)
	if cs.writers.Add(-1) == 0 && werr == nil {
		werr = cs.bw.Flush()
	}
	cs.mu.Unlock()
	*bp = b
	putFrame(bp)

	if werr != nil {
		cs.fail(fmt.Errorf("cluster: tcp write %s: %w", c.addr, werr))
		// fail resolved every busy slot, ours included — but a response
		// that raced in before the failure still counts, so the result
		// is handled exactly like the normal path.
	}
	var res tcpResult
	select {
	case res = <-sl.ch:
	case <-ctx.Done():
		cs.mu.Lock()
		cs.releaseSlotLocked(id)
		cs.mu.Unlock()
		return ctx.Err()
	}
	cs.mu.Lock()
	cs.releaseSlotLocked(id)
	cs.mu.Unlock()
	return c.finish(res, out)
}

// finish decodes one call's resolved result into out and recycles the
// response buffer.
func (c *tcpClient) finish(res tcpResult, out interface{}) error {
	if res.err != nil {
		return res.err
	}
	var err error
	if out != nil {
		err = (binaryCodec{}).Unmarshal(res.payload, out)
	}
	if res.bp != nil {
		putFrame(res.bp)
	}
	return err
}

// Close tears down the connection and fails in-flight calls. Further
// calls return ErrTransportClosed. The atomic flag also aborts any
// dial-retry cycle in progress before taking the lock.
func (c *tcpClient) Close() {
	c.closed.Store(true)
	c.mu.Lock()
	cs := c.cs
	c.cs = nil
	c.mu.Unlock()
	if cs != nil {
		cs.fail(ErrTransportClosed)
	}
}

// fail marks the connection dead exactly once, resolving every
// busy slot with err. The next call on the client redials. Sends are
// non-blocking: a slot whose real response already raced into its
// buffer keeps that response.
func (cs *tcpConnState) fail(err error) {
	cs.conn.Close()
	cs.mu.Lock()
	if !cs.dead {
		cs.dead = true
		cs.err = err
		for _, sl := range cs.slots {
			if !sl.busy {
				continue
			}
			select {
			case sl.ch <- tcpResult{err: err}:
			default:
			}
		}
	}
	cs.mu.Unlock()

	c := cs.client
	c.mu.Lock()
	if c.cs == cs {
		c.cs = nil
	}
	c.mu.Unlock()
}

// readLoop receives response frames and resolves waiting calls by
// slot. The generation check and the channel send happen under cs.mu,
// so a concurrent cancel (which bumps the generation and drains the
// slot) can never be interleaved with a stale delivery.
func (cs *tcpConnState) readLoop() {
	br := bufio.NewReaderSize(cs.conn, 32<<10)
	for {
		bp := getFrame()
		f, buf, err := readFrame(br, (*bp)[:0])
		*bp = buf
		if err != nil {
			putFrame(bp)
			cs.fail(fmt.Errorf("cluster: tcp read %s: %w", cs.client.addr, err))
			return
		}
		if f.kind != frameResponse && f.kind != frameError {
			// A request frame from the server: protocol violation.
			putFrame(bp)
			cs.fail(fmt.Errorf("cluster: tcp %s sent frame kind %d", cs.client.addr, f.kind))
			return
		}
		idx, gen := uint32(f.id), uint32(f.id>>32)
		cs.mu.Lock()
		var sl *tcpSlot
		if int64(idx) < int64(len(cs.slots)) {
			if s := cs.slots[idx]; s.busy && s.gen == gen {
				sl = s
			}
		}
		if sl == nil {
			cs.mu.Unlock()
			putFrame(bp) // call cancelled (or never existed): drop it
			continue
		}
		var res tcpResult
		if f.kind == frameResponse {
			// The slot's waiter takes ownership of the frame buffer.
			res = tcpResult{bp: bp, payload: f.payload}
		} else {
			res = tcpResult{err: errors.New("cluster: tcp remote: " + string(f.payload))}
		}
		delivered := false
		select {
		case sl.ch <- res:
			delivered = true
		default: // duplicate response for the id: drop it
		}
		cs.mu.Unlock()
		if !delivered || res.bp == nil {
			putFrame(bp)
		}
	}
}

// --- conns ---

type tcpLBConn struct{ c *tcpClient }

// NewTCPLBConn connects to a framed-TCP load balancer at addr
// ("host:port"; a tcp:// prefix is accepted). The connection is
// persistent and multiplexed; it is established lazily and redialed
// with backoff after failures.
func NewTCPLBConn(addr string) LBConn {
	return tcpLBConn{newTCPClient(addr, nil)}
}

func (c tcpLBConn) Submit(ctx context.Context, q QueryMsg) (QueryResponse, error) {
	var resp QueryResponse
	err := c.c.call(ctx, methodQuery, &q, &resp)
	return resp, err
}

func (c tcpLBConn) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	return c.c.call(ctx, methodSubmit, &req, nil)
}

func (c tcpLBConn) PollResults(ctx context.Context, req ResultsRequest) (ResultsResponse, error) {
	var resp ResultsResponse
	err := c.c.call(ctx, methodResults, &req, &resp)
	return resp, err
}

func (c tcpLBConn) Pull(ctx context.Context, req PullRequest) (PullResponse, error) {
	var resp PullResponse
	err := c.c.call(ctx, methodPull, &req, &resp)
	return resp, err
}

// PollResultsInto and PullInto decode straight into the caller's
// response struct, reusing its slice capacity across calls (the
// ReusingLBConn capability): the binary decoder overwrites every
// field.

func (c tcpLBConn) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	return c.c.call(ctx, methodResults, &req, resp)
}

func (c tcpLBConn) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	return c.c.call(ctx, methodPull, &req, resp)
}

func (c tcpLBConn) Complete(ctx context.Context, req CompleteRequest) error {
	return c.c.call(ctx, methodComplete, &req, nil)
}

func (c tcpLBConn) Configure(ctx context.Context, req ConfigureLBRequest) error {
	return c.c.call(ctx, methodConfigureLB, &req, nil)
}

func (c tcpLBConn) Stats(ctx context.Context) (LBStats, error) {
	var out LBStats
	err := c.c.call(ctx, methodLBStats, nil, &out)
	return out, err
}

func (c tcpLBConn) Membership(ctx context.Context) (MembershipResponse, error) {
	var out MembershipResponse
	err := c.c.call(ctx, methodMembership, nil, &out)
	return out, err
}

type tcpWorkerConn struct{ c *tcpClient }

// NewTCPWorkerConn connects to a worker's framed-TCP control plane.
func NewTCPWorkerConn(addr string) WorkerConn {
	return tcpWorkerConn{newTCPClient(addr, nil)}
}

func (c tcpWorkerConn) Configure(ctx context.Context, req ConfigureWorkerRequest) error {
	return c.c.call(ctx, methodConfigureWorker, &req, nil)
}

func (c tcpWorkerConn) Stats(ctx context.Context) (WorkerStats, error) {
	var out WorkerStats
	err := c.c.call(ctx, methodWorkerStats, nil, &out)
	return out, err
}

// --- transport ---

// tcpTransport serves components on loopback TCP listeners and
// connects them with persistent multiplexed framed connections.
type tcpTransport struct {
	errs chan error

	mu    sync.Mutex
	srvs  []*TCPServer
	conns []*tcpClient
}

func newTCPTransport() *tcpTransport {
	return &tcpTransport{errs: make(chan error, 8)}
}

func (t *tcpTransport) Name() string { return TransportTCP }

func (t *tcpTransport) Errors() <-chan error { return t.errs }

func (t *tcpTransport) ServeLB(s *LBServer) (LBConn, error) {
	srv, err := ServeLBTCP("127.0.0.1:0", s)
	if err != nil {
		return nil, err
	}
	cl := newTCPClient(srv.Addr(), t.errs)
	t.mu.Lock()
	t.srvs = append(t.srvs, srv)
	t.conns = append(t.conns, cl)
	t.mu.Unlock()
	return tcpLBConn{cl}, nil
}

func (t *tcpTransport) ServeWorker(s *WorkerServer) (WorkerConn, error) {
	srv, err := ServeWorkerTCP("127.0.0.1:0", s)
	if err != nil {
		return nil, err
	}
	cl := newTCPClient(srv.Addr(), t.errs)
	t.mu.Lock()
	t.srvs = append(t.srvs, srv)
	t.conns = append(t.conns, cl)
	t.mu.Unlock()
	return tcpWorkerConn{cl}, nil
}

func (t *tcpTransport) Close() {
	t.mu.Lock()
	conns, srvs := t.conns, t.srvs
	t.conns, t.srvs = nil, nil
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, s := range srvs {
		s.Close()
	}
}

// closeServers kills only the server side — listeners and accepted
// connections — leaving the clients to discover the loss, redial, and
// exhaust their retries. Tests use it to inject mid-run failures.
func (t *tcpTransport) closeServers() {
	t.mu.Lock()
	srvs := t.srvs
	t.mu.Unlock()
	for _, s := range srvs {
		s.Close()
	}
}
