package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"diffserve/internal/loadbalancer"
	"diffserve/internal/metrics"
	"diffserve/internal/queueing"
	"diffserve/internal/stats"
)

// LBConfig parameterizes the load-balancer server.
type LBConfig struct {
	// Mode selects the routing policy.
	Mode loadbalancer.Mode
	// SLO is the latency deadline in trace seconds.
	SLO float64
	// LightMinExec and HeavyMinExec are the batch-1 execution times
	// used for predicted-deadline-miss shedding.
	LightMinExec, HeavyMinExec float64
	// Clock provides trace time.
	Clock *Clock
	// Seed drives random-split routing.
	Seed uint64
	// QueueWindow sizes arrival-rate windows (trace seconds).
	QueueWindow float64
	// CoalesceWait bounds how long a pull waits for a batch to fill:
	// a pull for Max items returns empty while the queue holds fewer
	// than Max items AND the oldest has been queued for less than
	// CoalesceWait. Without it, concurrently polling workers shred
	// deferral groups into batch-1 executions and halve pool
	// throughput. Zero defaults to min(0.5s, SLO/10).
	CoalesceWait float64
	// RNGStream names the routing RNG stream derived from Seed (empty
	// defaults to "lb"). The sharded LB tier gives shard i the stream
	// "lb/<i>" so shards draw independent random-split decisions while
	// staying deterministic for a given (Seed, shard) pair.
	RNGStream string
	// LeaseDuration is how long (trace seconds) a pulled query stays
	// owned by its worker without further pull/complete activity from
	// that worker. Past the deadline the expiry sweep reclaims the
	// query and re-queues it into the pool it was pulled from, arrival
	// stamp intact. Zero defaults to 4x the SLO — generous enough that
	// a healthy worker never forfeits a batch mid-execution — and a
	// negative value disables leasing entirely (pre-lease behavior: a
	// dead worker's batch is silently lost).
	LeaseDuration float64
	// LeaseRedeliveries bounds how many times an unlucky query is
	// reclaimed and re-queued before the server sheds it to a drop
	// instead (a query that kills every worker it lands on must not
	// cycle forever). Zero defaults to 3.
	LeaseRedeliveries int
}

// lbLease is one pulled, uncompleted query's ownership record.
type lbLease struct {
	arrival float64
	// deadline is the lease granted at pull time; hard caps how far
	// worker heartbeats can push it. The cap is what reclaims a query
	// whose pull response was lost in transit: the worker never saw the
	// batch, but its later pulls keep heartbeating, so without the cap
	// the orphaned lease would extend forever.
	deadline, hard float64
	worker         int
	pool           string
	red            int // times already reclaimed and re-queued
}

// lbPool is one pool's share of the data path: its FIFO, its long-poll
// wakeup channel, and the lock that guards both. Sharding the state
// per pool keeps light pulls, heavy pulls, and submissions to
// different pools off each other's locks; the pool locks are leaves —
// no other LBServer lock is ever taken while one is held.
type lbPool struct {
	mu      sync.Mutex
	q       *queueing.FIFO
	wake    notifier
	minExec float64
	// draining is set by DrainRemaining under mu: once the end-of-run
	// sweep has emptied the queue, late pushes (a deferral or submit
	// racing the drain) are refused so the caller drops them instead
	// of stranding them in a queue nobody will pull again.
	draining bool
}

// push enqueues items and wakes blocked pulls. It reports false —
// enqueueing nothing — once the pool has been drained for shutdown.
func (p *lbPool) push(now float64, items ...queueing.Item) bool {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return false
	}
	for _, it := range items {
		p.q.Push(now, it)
	}
	p.wake.wake()
	p.mu.Unlock()
	return true
}

// LBServer is the data-path entry point: it queues queries per pool,
// hands batches to pulling workers (blocking long polls when asked),
// applies the cascade threshold to completed light generations, and
// resolves client waiters. Its core methods (Submit, SubmitBatch,
// PollResults, Pull, Complete, Configure, Stats) are
// transport-agnostic; Mux wraps them in codec-aware HTTP handlers,
// ServeLBTCP in framed-TCP handlers, and NewLocalLBConn dispatches to
// them directly.
//
// Locking is sharded so the hot paths do not contend on one mutex:
// each pool queue has its own lock (light pulls never wait on heavy
// pulls or on submissions routed to the other pool), the
// client-result state (waiters, async results, metrics, counters) is
// guarded by resMu, and the random-split routing state by splitMu.
type LBServer struct {
	cfg LBConfig

	// ringEpoch is the sharded tier's ring epoch this server last
	// learned via Configure (monotonic). It is echoed in every
	// PullResponse so shard-pinned workers notice membership changes.
	ringEpoch atomic.Int64

	// memberMu guards the tier-membership snapshot the server last
	// adopted from a Configure broadcast. Every shard server in an
	// elastic tier holds the same snapshot, so any of them can answer
	// Membership() for followers (standalone frontends and workers)
	// that track the tier through a single bootstrap address.
	memberMu      sync.Mutex
	memberEpoch   int
	members       []int
	memberAddrs   []string
	memberWeights []int

	// pools is indexed by loadbalancer.PoolID (PoolLight, PoolHeavy).
	pools [2]lbPool

	// splitMu guards the random-split routing state (Proteus mode).
	splitMu   sync.Mutex
	splitProb float64
	rng       *stats.RNG

	// resMu guards everything on the client-result side: waiters,
	// async-result buffering, the metrics collector, the control-plane
	// counters, and the cascade threshold.
	resMu     sync.Mutex
	threshold float64
	waiters   map[int]chan QueryResponse
	async     map[int]struct{} // batch-submitted queries awaiting results
	results   []QueryResponse  // finished async results not yet fetched
	col       *metrics.Collector
	arrivals  int // since last stats poll
	timeouts  int // since last stats poll
	completed int
	dropped   int
	// Result long-poll wakeup. resultsDirty batches the wakeup: a
	// whole Complete batch signals once, not once per query.
	wakeResults  notifier
	resultsDirty bool

	// leaseMu guards the pull-lease table. It is a leaf like the pool
	// locks: it is never held while acquiring another LBServer lock,
	// so it may be taken freely from any path (including under resMu).
	leaseMu    sync.Mutex
	leases     map[int]lbLease // query ID -> in-flight lease
	workerSeen map[int]float64 // worker ID -> last pull/complete time
	nextSweep  float64
	// lifetime failure-model counters, surfaced through Stats
	reclaims        int
	shedRedelivery  int
	lateCompletions int
}

// NewLBServer constructs a load balancer.
func NewLBServer(cfg LBConfig) *LBServer {
	if cfg.QueueWindow <= 0 {
		cfg.QueueWindow = 10
	}
	if cfg.CoalesceWait <= 0 {
		cfg.CoalesceWait = cfg.SLO / 10
		if cfg.CoalesceWait > 0.5 {
			cfg.CoalesceWait = 0.5
		}
	}
	stream := cfg.RNGStream
	if stream == "" {
		stream = "lb"
	}
	if cfg.LeaseDuration == 0 {
		cfg.LeaseDuration = 4 * cfg.SLO
	}
	if cfg.LeaseRedeliveries <= 0 {
		cfg.LeaseRedeliveries = 3
	}
	s := &LBServer{
		cfg:     cfg,
		rng:     stats.NewRNG(cfg.Seed).Stream(stream),
		waiters: make(map[int]chan QueryResponse),
		async:   make(map[int]struct{}),
		col:     metrics.NewCollector(),
	}
	if cfg.LeaseDuration > 0 {
		s.leases = make(map[int]lbLease)
		s.workerSeen = make(map[int]float64)
	}
	s.pools[loadbalancer.PoolLight] = lbPool{
		q: queueing.NewFIFO(cfg.QueueWindow), minExec: cfg.LightMinExec,
	}
	s.pools[loadbalancer.PoolHeavy] = lbPool{
		q: queueing.NewFIFO(cfg.QueueWindow), minExec: cfg.HeavyMinExec,
	}
	return s
}

// Collector exposes the LB's metrics records (read after the run).
func (s *LBServer) Collector() *metrics.Collector { return s.col }

// pool maps a worker role to its pool shard.
func (s *LBServer) pool(role string) *lbPool {
	if role == "heavy" {
		return &s.pools[loadbalancer.PoolHeavy]
	}
	return &s.pools[loadbalancer.PoolLight]
}

// routePool picks the pool an arrival joins. The decision itself is
// loadbalancer.Decide — the same policy the simulator runs — with the
// split state locked only in the one mode that uses it.
func (s *LBServer) routePool() loadbalancer.PoolID {
	if s.cfg.Mode != loadbalancer.ModeRandomSplit {
		return loadbalancer.Decide(s.cfg.Mode, 0, nil)
	}
	s.splitMu.Lock()
	defer s.splitMu.Unlock()
	return loadbalancer.Decide(s.cfg.Mode, s.splitProb, s.rng)
}

// Mux returns the HTTP handler exposing the LB API. Handlers decode
// the request with the codec named by its Content-Type (JSON when
// absent) and respond in kind.
func (s *LBServer) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/results", s.handleResults)
	mux.HandleFunc("/pull", s.handlePull)
	mux.HandleFunc("/complete", s.handleComplete)
	mux.HandleFunc("/configure", s.handleConfigure)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/membership", s.handleMembership)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// Submit admits a query and blocks until it completes, drops, or ctx
// is cancelled (reported by ok=false).
func (s *LBServer) Submit(ctx context.Context, q QueryMsg) (resp QueryResponse, ok bool) {
	now := s.cfg.Clock.Now()
	if q.Arrival == 0 {
		q.Arrival = now
	}
	ch := make(chan QueryResponse, 1)

	// Register the waiter before the query becomes pullable, so a
	// worker on another core cannot complete it first.
	s.resMu.Lock()
	s.waiters[q.ID] = ch
	s.arrivals++
	s.resMu.Unlock()

	if !s.pools[s.routePool()].push(now, queueing.Item{ID: q.ID, Arrival: q.Arrival}) {
		s.dropRejected([]queueing.Item{{ID: q.ID, Arrival: q.Arrival}})
	}

	select {
	case resp = <-ch:
		return resp, true
	case <-ctx.Done():
		s.resMu.Lock()
		delete(s.waiters, q.ID)
		s.resMu.Unlock()
		return QueryResponse{}, false
	}
}

// SubmitBatch admits queries asynchronously: each will eventually
// surface exactly one result (completion or drop) via PollResults.
func (s *LBServer) SubmitBatch(qs []QueryMsg) {
	s.submitBatch(qs, "")
}

// SubmitBatchReq admits a SubmitRequest, honoring its Pool override —
// the transport handlers' entry point, so a migration re-queue
// arriving over any wire lands in the pool it was drained from. Pool
// is wire-facing: anything but the two known pool names degrades to
// a normal policy-routed (and demand-counted) admission rather than
// silently picking a pool for a value the peer mistyped.
func (s *LBServer) SubmitBatchReq(req SubmitRequest) {
	pool := req.Pool
	if pool != "light" && pool != "heavy" {
		pool = ""
	}
	s.submitBatch(req.Queries, pool)
}

// submitBatch is the admission core. pool "" is a normal arrival:
// routed by policy and counted in the demand counters. A non-empty
// pool is a resharding migration re-queue: the queries go straight to
// that pool (a drained deferral keeps its place in the cascade) and
// the arrival counters stay untouched — they were already counted at
// the shard the queries first arrived on, which the merged Stats
// still sums.
func (s *LBServer) submitBatch(qs []QueryMsg, pool string) {
	if len(qs) == 0 {
		return
	}
	now := s.cfg.Clock.Now()
	item := func(q QueryMsg) queueing.Item {
		if q.Arrival == 0 {
			q.Arrival = now
		}
		return queueing.Item{ID: q.ID, Arrival: q.Arrival}
	}
	s.resMu.Lock()
	for _, q := range qs {
		s.async[q.ID] = struct{}{}
		if pool == "" {
			s.arrivals++
		}
	}
	s.resMu.Unlock()

	if pool != "" || s.cfg.Mode != loadbalancer.ModeRandomSplit {
		// Single-destination admissions (every policy but random
		// split, and all pool overrides): push the whole batch under
		// one pool lock with no per-query routing state or allocation.
		dest := loadbalancer.PoolLight
		switch {
		case pool == "heavy":
			dest = loadbalancer.PoolHeavy
		case pool == "":
			dest = s.routePool()
		}
		p := &s.pools[dest]
		p.mu.Lock()
		if p.draining {
			p.mu.Unlock()
			items := make([]queueing.Item, len(qs))
			for i, q := range qs {
				items[i] = item(q)
			}
			s.dropRejected(items)
			return
		}
		for _, q := range qs {
			p.q.Push(now, item(q))
		}
		p.wake.wake()
		p.mu.Unlock()
		return
	}
	for _, q := range qs {
		if it := item(q); !s.pools[s.routePool()].push(now, it) {
			s.dropRejected([]queueing.Item{it})
		}
	}
}

// PollResults returns finished async results, blocking up to req.Wait
// trace-seconds for at least one to arrive. req.Wait <= 0 is an
// explicit non-blocking poll: one buffer check, never a sleep —
// identical across every transport (the conformance suite pins it).
func (s *LBServer) PollResults(ctx context.Context, req ResultsRequest) ResultsResponse {
	var resp ResultsResponse
	s.PollResultsInto(ctx, req, &resp)
	return resp
}

// PollResultsInto is the buffer-reusing form of PollResults: results
// are copied into resp.Results' existing capacity instead of a fresh
// slice per poll, so a caller that polls in a loop with one persistent
// response struct allocates nothing in steady state. resp is
// overwritten entirely; the caller owns it and everything it
// references (result Features alias the collector's immutable arena
// and must not be mutated).
func (s *LBServer) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) {
	max := req.Max
	if max <= 0 {
		max = 256
	}
	if req.Wait <= 0 {
		s.resMu.Lock()
		s.takeResultsInto(max, resp)
		s.resMu.Unlock()
		return
	}
	deadline := time.Now().Add(s.cfg.Clock.WallDuration(req.Wait)) //diffvet:allow walltime — long-poll deadline in wall time; the trace wait is already Clock-converted
	w := getWaiter()
	defer putWaiter(w)
	for {
		remain := time.Until(deadline) //diffvet:allow walltime — remaining wall budget of the Clock-converted long-poll deadline
		s.resMu.Lock()
		s.takeResultsInto(max, resp)
		parked := len(resp.Results) == 0 && remain > 0
		if parked {
			s.wakeResults.arm(w)
		} else {
			s.wakeResults.disarm(w)
		}
		s.resMu.Unlock()
		if !parked {
			return
		}
		if w.park(remain, ctx.Done(), nil) == parkDone {
			s.resMu.Lock()
			s.wakeResults.disarm(w)
			s.resMu.Unlock()
			return
		}
	}
}

// takeResultsInto pops up to max buffered async results into
// resp.Results, reusing its capacity. An empty take keeps the
// caller's buffer (length zero) so the next non-empty poll is still
// allocation-free. Callers must hold resMu.
func (s *LBServer) takeResultsInto(max int, resp *ResultsResponse) {
	n := len(s.results)
	if n == 0 {
		resp.Results = resp.Results[:0]
		return
	}
	if n > max {
		n = max
	}
	resp.Results = append(resp.Results[:0], s.results[:n]...)
	s.results = append(s.results[:0], s.results[n:]...)
}

// handleQuery admits a query and blocks until it completes or drops.
func (s *LBServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q QueryMsg
	codec, err := readMsg(r, &q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, ok := s.Submit(r.Context(), q)
	if !ok {
		return // client went away
	}
	writeMsg(w, codec, &resp)
}

// handleSubmit admits an async query batch.
func (s *LBServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if _, err := readMsg(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.SubmitBatchReq(req)
	w.WriteHeader(http.StatusOK)
}

// handleResults long-polls for async results.
func (s *LBServer) handleResults(w http.ResponseWriter, r *http.Request) {
	var req ResultsRequest
	codec, err := readMsg(r, &req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := s.PollResults(r.Context(), req)
	writeMsg(w, codec, &resp)
}

// Pull hands up to req.Max queued queries to a worker, shedding
// queries that can no longer meet their deadline. With req.Wait > 0
// it long-polls: the call blocks until a batch is dispatchable under
// the coalescing policy or the wait expires. req.Wait <= 0 is an
// explicit non-blocking poll: one dequeue attempt, never a sleep —
// identical across every transport (the conformance suite pins it).
// Pulls only touch their own pool's lock, so light and heavy dispatch
// proceed concurrently.
func (s *LBServer) Pull(ctx context.Context, req PullRequest) PullResponse {
	var resp PullResponse
	s.PullInto(ctx, req, &resp)
	return resp
}

// PullInto is the buffer-reusing form of Pull: the pulled batch is
// written into resp.Queries' existing capacity, so a worker that
// pulls in a loop with one persistent response struct allocates
// nothing in steady state. resp is overwritten entirely (an empty
// pull leaves Queries nil, matching the by-value API and the wire
// codecs' nil-vs-empty normalization).
func (s *LBServer) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) {
	if req.Drain {
		*resp = s.drainPull(req)
		return
	}
	epoch := int(s.ringEpoch.Load())
	resp.RingEpoch = epoch
	resp.LeaseDeadline = 0
	// Keep the caller's query buffer for reuse; empty returns hand back
	// nil (wire parity) without dropping the capacity they carried in.
	qbuf := resp.Queries[:0]
	resp.Queries = nil
	p := s.pool(req.Role)
	var deadline time.Time
	var w *waiter
	if req.Wait > 0 {
		deadline = time.Now().Add(s.cfg.Clock.WallDuration(req.Wait)) //diffvet:allow walltime — long-poll deadline in wall time; the trace wait is already Clock-converted
		w = getWaiter()
		defer putWaiter(w)
	}
	scratch := getItemScratch()
	defer putItemScratch(scratch)
	for {
		now := s.cfg.Clock.Now()
		// Heartbeat first, sweep if due: a reclaimed query re-queued by
		// the sweep is pullable by this very call.
		s.leaseTouch(req.WorkerID, now)
		var remain time.Duration
		if w != nil {
			remain = time.Until(deadline) //diffvet:allow walltime — remaining wall budget of the Clock-converted long-poll deadline
		}
		p.mu.Lock()
		shed, items, retry := s.dequeuePool(p, req.Max, now, (*scratch)[:0])
		// Arm the wakeup inside the same critical section as the
		// failed dequeue, so a push cannot race the sleep.
		parked := len(items) == 0 && remain > 0
		if parked {
			p.wake.arm(w)
		} else if w != nil {
			p.wake.disarm(w)
		}
		p.mu.Unlock()
		if items != nil {
			*scratch = items[:0]
		}

		if len(shed) > 0 {
			s.resMu.Lock()
			for _, it := range shed {
				s.dropLocked(it.ID, it.Arrival)
			}
			s.flushResultsLocked()
			s.resMu.Unlock()
		}
		if len(items) > 0 {
			for _, it := range items {
				qbuf = append(qbuf, QueryMsg{ID: it.ID, Arrival: it.Arrival})
			}
			resp.Queries = qbuf
			resp.LeaseDeadline = s.leaseBatch(req.WorkerID, req.Role, items, now)
			return
		}
		if !parked {
			resp.Queries = nil
			return
		}
		// Sleep until new work arrives, the head's coalesce window
		// expires, or the long-poll deadline — whichever is first.
		sleep := remain
		if retry > 0 {
			if d := s.cfg.Clock.WallDuration(retry); d < sleep {
				sleep = d
			}
		}
		if sleep < time.Millisecond {
			sleep = time.Millisecond
		}
		if w.park(sleep, ctx.Done(), nil) == parkDone {
			p.mu.Lock()
			p.wake.disarm(w)
			p.mu.Unlock()
			return
		}
	}
}

// drainPull is the resharding path's ownership transfer (see
// PullRequest.Drain): it pops up to req.Max queued queries from the
// pool with no shedding and no coalescing, forgets their async
// registrations, and hands them to the caller for re-submission to
// their new owning shard. A query with a blocking waiter stays here
// and resolves as a drop (its client is parked on this server's
// Submit); a query with no live registration was already resolved by
// a racing drop and is silently discarded — returning it would let
// the re-submission resolve it a second time.
func (s *LBServer) drainPull(req PullRequest) PullResponse {
	epoch := int(s.ringEpoch.Load())
	max := req.Max
	if max <= 0 {
		max = 256
	}
	now := s.cfg.Clock.Now()
	p := s.pool(req.Role)
	resp := PullResponse{RingEpoch: epoch}
	// An empty response means "this pool is drained": a popped round
	// whose items all turn out non-migratable (waiter-backed, or
	// already resolved by a racing drop) must not end the caller's
	// drain loop while queries still sit in the queue, so keep
	// popping until a round yields something migratable or the queue
	// is empty.
	for len(resp.Queries) == 0 {
		p.mu.Lock()
		n := p.q.Len()
		if n > max {
			n = max
		}
		items := p.q.Pop(now, n)
		p.mu.Unlock()
		if len(items) == 0 {
			return resp
		}
		s.resMu.Lock()
		for _, it := range items {
			if _, ok := s.async[it.ID]; ok {
				delete(s.async, it.ID)
				resp.Queries = append(resp.Queries, QueryMsg{ID: it.ID, Arrival: it.Arrival})
				continue
			}
			if _, ok := s.waiters[it.ID]; ok {
				s.dropLocked(it.ID, it.Arrival)
			}
		}
		s.flushResultsLocked()
		s.resMu.Unlock()
	}
	return resp
}

// dequeuePool sheds expired queries, then dequeues a batch if one is
// dispatchable under the coalescing policy. Shed items are returned to
// the caller for drop accounting outside the pool lock; dequeued items
// are appended to dst (a pooled scratch slice on the hot path, so the
// dequeue itself is allocation-free). When the queue holds a
// not-yet-dispatchable partial batch it returns the trace-seconds
// until the head's coalesce window expires, so long polls can wake
// exactly then. Callers must hold p.mu.
func (s *LBServer) dequeuePool(p *lbPool, max int, now float64, dst []queueing.Item) (shed, items []queueing.Item, retry float64) {
	shed = p.q.DropWhere(func(it queueing.Item) bool {
		return now+p.minExec > it.Arrival+s.cfg.SLO
	})
	// Batch coalescing: let the batch fill unless the head of the
	// queue has already waited its share. Waiting longer than one
	// batch-1 execution is never worthwhile, so the wait is capped
	// per pool by its execution time.
	wait := s.cfg.CoalesceWait
	if p.minExec < wait {
		wait = p.minExec
	}
	if p.q.Len() >= max {
		return shed, p.q.PopAppend(now, max, dst), 0
	}
	if oldest, ok := p.q.PeekEnqueue(); ok {
		if waited := now - oldest; waited >= wait {
			return shed, p.q.PopAppend(now, max, dst), 0
		} else {
			return shed, dst, wait - waited
		}
	}
	return shed, dst, 0
}

// handlePull serves worker pulls.
func (s *LBServer) handlePull(w http.ResponseWriter, r *http.Request) {
	var req PullRequest
	codec, err := readMsg(r, &req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := s.Pull(r.Context(), req)
	writeMsg(w, codec, &resp)
}

// Complete receives a finished batch: light-pool results are
// thresholded (serve or defer); heavy-pool results always serve.
func (s *LBServer) Complete(req CompleteRequest) {
	now := s.cfg.Clock.Now()
	s.clearLeases(&req, now)
	cascadeLight := req.Role == "light" && s.cfg.Mode == loadbalancer.ModeCascade

	var deferred []queueing.Item
	s.resMu.Lock()
	threshold := s.threshold
	for _, item := range req.Items {
		if cascadeLight && item.Confidence < threshold {
			// Only live queries defer: the resharding fan-out delivers
			// completions to every epoch's owner, so a shard that never
			// held (or already migrated away) this query must not
			// enqueue a phantom copy in its heavy pool.
			if s.liveLocked(item.ID) {
				deferred = append(deferred, queueing.Item{ID: item.ID, Arrival: item.Arrival})
			}
			continue
		}
		s.completeLocked(item, now, req.Role == "heavy")
	}
	s.flushResultsLocked()
	s.resMu.Unlock()

	if len(deferred) > 0 && !s.pools[loadbalancer.PoolHeavy].push(now, deferred...) {
		// The end-of-run drain already swept the heavy queue: these
		// deferrals arrived too late to ever be pulled, so they
		// resolve as drops instead of stranding their waiters.
		s.dropRejected(deferred)
	}
}

// dropRejected resolves queries a drained pool refused to enqueue.
func (s *LBServer) dropRejected(items []queueing.Item) {
	s.resMu.Lock()
	for _, it := range items {
		s.dropLocked(it.ID, it.Arrival)
	}
	s.flushResultsLocked()
	s.resMu.Unlock()
}

// leaseHardFactor caps how far heartbeats can extend a lease past its
// grant: effective deadline <= grant + leaseHardFactor*LeaseDuration.
// The cap is what reclaims a batch whose pull response was lost in
// transit — the worker never received it, but its later pulls keep
// heartbeating, so without the cap the orphaned lease would live
// forever.
const leaseHardFactor = 4

// leasing reports whether pull leases are enabled.
func (s *LBServer) leasing() bool { return s.leases != nil }

// leaseTouch records worker activity (the lease heartbeat) and runs
// the expiry sweep when its interval has elapsed. It is called on
// every pull attempt and every completion, so in any cluster with at
// least one live worker, dead workers' leases are reclaimed within a
// sweep interval.
func (s *LBServer) leaseTouch(workerID int, now float64) {
	if !s.leasing() {
		return
	}
	s.leaseMu.Lock()
	s.workerSeen[workerID] = now
	light, heavy, shed := s.collectExpiredLocked(now)
	s.leaseMu.Unlock()
	s.settleExpired(light, heavy, shed, now)
}

// sweepLeases runs the expiry sweep without attributing a heartbeat
// (the Stats path: the controller's poll must reclaim a fully dead
// worker set even when no worker is pulling).
func (s *LBServer) sweepLeases(now float64) {
	if !s.leasing() {
		return
	}
	s.leaseMu.Lock()
	light, heavy, shed := s.collectExpiredLocked(now)
	s.leaseMu.Unlock()
	s.settleExpired(light, heavy, shed, now)
}

// leaseBatch registers pulled items under a fresh lease for the
// worker and returns the deadline echoed in the PullResponse. A
// reclaimed item carries its redelivery count in Item.Payload, so the
// bound survives the trip through the queue.
func (s *LBServer) leaseBatch(workerID int, role string, items []queueing.Item, now float64) float64 {
	if !s.leasing() {
		return 0
	}
	pool := "light"
	if role == "heavy" {
		pool = "heavy"
	}
	dur := s.cfg.LeaseDuration
	deadline := now + dur
	s.leaseMu.Lock()
	for _, it := range items {
		red := 0
		if v, ok := it.Payload.(int); ok {
			red = v
		}
		s.leases[it.ID] = lbLease{
			arrival: it.Arrival, deadline: deadline, hard: now + leaseHardFactor*dur,
			worker: workerID, pool: pool, red: red,
		}
	}
	s.leaseMu.Unlock()
	return deadline
}

// clearLeases releases the leases of a completed batch (heartbeating
// the reporting worker) and counts zombie reports: items whose lease
// was already reclaimed — or resolved by someone else — before this
// completion arrived. Only lease-aware reports (a nonzero echoed
// deadline) are counted, so pre-lease clients do not inflate the
// counter. The lease is released regardless of which worker holds it:
// the query resolves (or re-queues as a deferral) under resMu right
// after this, so any copy still leased elsewhere is moot.
func (s *LBServer) clearLeases(req *CompleteRequest, now float64) {
	if !s.leasing() {
		return
	}
	s.leaseMu.Lock()
	s.workerSeen[req.WorkerID] = now
	for i := range req.Items {
		if _, ok := s.leases[req.Items[i].ID]; ok {
			delete(s.leases, req.Items[i].ID)
		} else if req.LeaseDeadline > 0 {
			s.lateCompletions++
		}
	}
	light, heavy, shed := s.collectExpiredLocked(now)
	s.leaseMu.Unlock()
	s.settleExpired(light, heavy, shed, now)
}

// collectExpiredLocked removes every lease past its effective
// deadline, splitting the expirations into per-pool re-queue lists
// and a shed list (queries that exhausted their redelivery bound).
// It self-throttles to one scan per quarter lease duration. Callers
// must hold leaseMu.
func (s *LBServer) collectExpiredLocked(now float64) (light, heavy, shed []queueing.Item) {
	if now < s.nextSweep {
		return nil, nil, nil
	}
	dur := s.cfg.LeaseDuration
	s.nextSweep = now + dur/4
	for id, l := range s.leases {
		eff := l.deadline
		if seen, ok := s.workerSeen[l.worker]; ok && seen+dur > eff {
			eff = seen + dur
		}
		if eff > l.hard {
			eff = l.hard
		}
		if now <= eff {
			continue
		}
		delete(s.leases, id)
		it := queueing.Item{ID: id, Arrival: l.arrival, Payload: l.red + 1}
		switch {
		case l.red+1 > s.cfg.LeaseRedeliveries:
			shed = append(shed, it)
			s.shedRedelivery++
		case l.pool == "heavy":
			heavy = append(heavy, it)
			s.reclaims++
		default:
			light = append(light, it)
			s.reclaims++
		}
	}
	return light, heavy, shed
}

// settleExpired disposes of a sweep's harvest: redelivery-exhausted
// queries resolve as drops, the rest re-queue into the pool they were
// pulled from. This is the same exactly-once shape as the resharding
// re-submit path (SubmitRequest.Pool): the arrival stamp rides along
// untouched, nothing is re-counted as an arrival, and — because a
// reclaim never crosses servers — the waiter/async registration is
// still in place, so no re-registration happens at all. A query whose
// registration is already gone (resolved by a zombie completion, or
// its blocking Submit was cancelled) is skipped rather than
// re-executed for nobody; a pool already draining for shutdown
// refuses the push and the queries resolve as drops like any late
// arrival.
func (s *LBServer) settleExpired(light, heavy, shed []queueing.Item, now float64) {
	if len(shed) > 0 {
		s.dropRejected(shed)
	}
	requeue := func(dest loadbalancer.PoolID, items []queueing.Item) {
		if len(items) == 0 {
			return
		}
		live := items[:0]
		s.resMu.Lock()
		for _, it := range items {
			if s.liveLocked(it.ID) {
				live = append(live, it)
			}
		}
		s.resMu.Unlock()
		if len(live) == 0 {
			return
		}
		if !s.pools[dest].push(now, live...) {
			s.dropRejected(live)
		}
	}
	requeue(loadbalancer.PoolLight, light)
	requeue(loadbalancer.PoolHeavy, heavy)
}

// handleComplete serves completion reports.
func (s *LBServer) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if _, err := readMsg(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.Complete(req)
	w.WriteHeader(http.StatusOK)
}

// liveLocked reports whether a query still awaits its resolution —
// a blocking waiter or an async entry exists. Once resolved, neither
// does, so completions and drops racing a drain (or arriving twice)
// become no-ops instead of double-counting in the collector and the
// control-plane counters. Callers must hold resMu.
func (s *LBServer) liveLocked(id int) bool {
	if _, ok := s.waiters[id]; ok {
		return true
	}
	_, ok := s.async[id]
	return ok
}

// completeLocked resolves a waiter and records the outcome. A query
// already resolved — e.g. dropped by DrainRemaining while this
// completion was in flight, or delivered twice by a retrying peer —
// is skipped: the first resolution is final and must not be
// double-recorded or resurrected in the results buffer. Callers must
// hold resMu.
func (s *LBServer) completeLocked(item CompleteItem, now float64, deferred bool) {
	if !s.liveLocked(item.ID) {
		return
	}
	// Intern the features once into the collector's immutable arena:
	// the stored record and the delivered result share that copy, so
	// neither retains the caller's slice — a pooled decode buffer can
	// be recycled the moment Complete returns.
	feats := s.col.InternFeatures(item.Features)
	rec := metrics.QueryRecord{
		ID:         item.ID,
		Arrival:    item.Arrival,
		Completion: now,
		Deadline:   item.Arrival + s.cfg.SLO,
		Deferred:   deferred,
		ServedBy:   item.Variant,
		Confidence: item.Confidence,
		Features:   feats,
		Artifact:   item.Artifact,
	}
	if rec.Violated() {
		s.timeouts++
	}
	s.col.Record(rec)
	s.completed++
	resp := QueryResponse{
		ID: item.ID, Variant: item.Variant, Features: feats,
		Artifact: item.Artifact, Confidence: item.Confidence,
		Deferred: deferred, Arrival: item.Arrival, Completion: now,
	}
	s.resolveLocked(item.ID, resp)
}

// dropLocked sheds a query. Like completeLocked it is idempotent:
// a query already resolved by a racing complete or an earlier drain
// sweep is left alone. Callers must hold resMu.
func (s *LBServer) dropLocked(id int, arrival float64) {
	if !s.liveLocked(id) {
		return
	}
	s.col.Record(metrics.QueryRecord{
		ID: id, Arrival: arrival, Deadline: arrival + s.cfg.SLO, Dropped: true,
	})
	s.dropped++
	s.timeouts++
	s.resolveLocked(id, QueryResponse{ID: id, Dropped: true, Arrival: arrival})
}

// resolveLocked delivers a query's final outcome to whichever side is
// waiting for it: a blocking Submit waiter, or the async results
// buffer drained by PollResults. Callers must hold resMu.
func (s *LBServer) resolveLocked(id int, resp QueryResponse) {
	if ch, ok := s.waiters[id]; ok {
		ch <- resp
		delete(s.waiters, id)
	}
	if _, ok := s.async[id]; ok {
		s.results = append(s.results, resp)
		delete(s.async, id)
		s.resultsDirty = true
	}
}

// flushResultsLocked wakes result pollers once for however many
// results the caller just resolved. Callers must hold resMu.
func (s *LBServer) flushResultsLocked() {
	if s.resultsDirty {
		s.wakeResults.wake()
		s.resultsDirty = false
	}
}

// Configure updates threshold / split probability, and adopts the
// ring epoch monotonically: a stale broadcast racing a reshard cannot
// regress the epoch workers observe in their pull responses.
func (s *LBServer) Configure(req ConfigureLBRequest) {
	for {
		cur := s.ringEpoch.Load()
		if int64(req.RingEpoch) <= cur || s.ringEpoch.CompareAndSwap(cur, int64(req.RingEpoch)) {
			break
		}
	}
	// Adopt the membership snapshot monotonically too, under its own
	// lock: the atomic above may already hold a newer epoch from a
	// racing broadcast, so the snapshot keeps its own high-water mark.
	if len(req.Members) > 0 {
		s.memberMu.Lock()
		if req.RingEpoch >= s.memberEpoch {
			s.memberEpoch = req.RingEpoch
			s.members = append(s.members[:0], req.Members...)
			s.memberAddrs = append(s.memberAddrs[:0], req.MemberAddrs...)
			s.memberWeights = append(s.memberWeights[:0], req.MemberWeights...)
		}
		s.memberMu.Unlock()
	}
	s.resMu.Lock()
	s.threshold = req.Threshold
	s.resMu.Unlock()

	s.splitMu.Lock()
	s.splitProb = loadbalancer.ClampProb(req.SplitProb)
	s.splitMu.Unlock()
}

// handleConfigure serves policy updates.
func (s *LBServer) handleConfigure(w http.ResponseWriter, r *http.Request) {
	var req ConfigureLBRequest
	if _, err := readMsg(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.Configure(req)
	w.WriteHeader(http.StatusOK)
}

// Stats reports control-plane statistics and resets the per-tick
// counters.
func (s *LBServer) Stats() LBStats {
	now := s.cfg.Clock.Now()
	// The stats poll doubles as the sweep of last resort: with every
	// worker dead nothing else ticks the lease table, and it is
	// exactly then that reclamation matters most.
	s.sweepLeases(now)
	snap := func(p *lbPool) queueing.Snapshot {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.q.Snap(now)
	}
	light := snap(&s.pools[loadbalancer.PoolLight])
	heavy := snap(&s.pools[loadbalancer.PoolHeavy])

	s.resMu.Lock()
	out := LBStats{
		Now:               now,
		LightQueueLen:     light.Len,
		HeavyQueueLen:     heavy.Len,
		LightArrivalRate:  light.ArrivalRate,
		HeavyArrivalRate:  heavy.ArrivalRate,
		ArrivalsSinceTick: s.arrivals,
		TimeoutsSinceTick: s.timeouts,
		Completed:         s.completed,
		Dropped:           s.dropped,
	}
	s.arrivals = 0
	s.timeouts = 0
	s.resMu.Unlock()

	if s.leasing() {
		s.leaseMu.Lock()
		out.InFlight = len(s.leases)
		out.Reclaims = s.reclaims
		out.ShedRedelivery = s.shedRedelivery
		out.LateCompletions = s.lateCompletions
		s.leaseMu.Unlock()
	}
	return out
}

// handleStats serves the control-plane report. The response codec
// follows the Accept header (GET has no body to infer from).
func (s *LBServer) handleStats(w http.ResponseWriter, r *http.Request) {
	out := s.Stats()
	writeMsg(w, codecForContentType(r.Header.Get("Accept")), &out)
}

// Membership reports the tier membership this server last adopted
// from a Configure broadcast — epoch, member IDs, dial addresses, and
// placement weights. A server that never saw a membership broadcast
// (a standalone single-shard LB) reports its bare ring epoch with no
// members; followers treat that as "nothing to follow".
func (s *LBServer) Membership() MembershipResponse {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	out := MembershipResponse{RingEpoch: s.memberEpoch}
	if out.RingEpoch == 0 {
		out.RingEpoch = int(s.ringEpoch.Load())
	}
	out.Members = append([]int(nil), s.members...)
	out.Addrs = append([]string(nil), s.memberAddrs...)
	out.Weights = append([]int(nil), s.memberWeights...)
	return out
}

// handleMembership serves the membership snapshot; like /stats the
// response codec follows the Accept header.
func (s *LBServer) handleMembership(w http.ResponseWriter, r *http.Request) {
	out := s.Membership()
	writeMsg(w, codecForContentType(r.Header.Get("Accept")), &out)
}

// DrainRemaining drops every still-queued query (end of run) and
// marks the pools as draining: pushes that lose the race with the
// sweep — a deferral or submission in flight while the drain runs —
// are refused and resolve as drops rather than stranding forever in
// a queue no worker will pull again.
func (s *LBServer) DrainRemaining() {
	now := s.cfg.Clock.Now()
	for i := range s.pools {
		p := &s.pools[i]
		p.mu.Lock()
		items := p.q.Pop(now, p.q.Len())
		p.draining = true
		p.mu.Unlock()
		if len(items) == 0 {
			continue
		}
		s.dropRejected(items)
	}
}

// readMsg decodes an HTTP request body with the codec named by its
// Content-Type header (JSON when absent) and returns that codec so
// the response can be written in kind.
func readMsg(r *http.Request, v interface{}) (Codec, error) {
	codec := codecForContentType(r.Header.Get("Content-Type"))
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return codec, err
	}
	return codec, codec.Unmarshal(body, v)
}

// writeMsg encodes a response with the given codec.
func writeMsg(w http.ResponseWriter, codec Codec, v interface{}) {
	data, err := codec.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", codec.ContentType())
	w.Write(data)
}
