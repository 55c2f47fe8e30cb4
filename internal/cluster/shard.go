package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diffserve/internal/loadbalancer"
)

// This file implements the sharded load-balancer tier: a frontend
// that partitions the query stream across N independent LBServer
// shards, each reachable through any Transport (inproc, http, tcp).
// One LBServer process tops out on its result lock and admission path
// long before "millions of users" arrival rates; partitioning query
// IDs across shards multiplies the admission and result throughput
// without any new wire messages — the frontend speaks the existing
// LBConn verbs to each shard.
//
// Placement is a loadbalancer.Ring — a versioned consistent-hash ring
// over the shard membership. Every process computes the owning shard
// locally and deterministically from (members, vnodes), so a
// multi-host layout — one LB shard plus a worker group per host —
// needs no coordination service. With VNodes == 0 the epoch-0 ring is
// the legacy static modulus (bit-identical to loadbalancer.ShardOf),
// so fixed-N deployments keep their exact assignment.
//
// Membership is a runtime property. Resharding installs a new ring
// epoch: new submits atomically flip to the new ring (an RWMutex
// write barrier — a batch in flight lands entirely in the epoch it
// started under), queued queries owned by departing shards are
// drain-pulled back through the frontend and re-submitted to their
// new owners (PullRequest.Drain transfers ownership, so the move is
// exactly-once), and completions fan out to each epoch's owner —
// the idempotent complete/drop machinery makes the extra deliveries
// no-ops. Removed shards stay reachable as "retired" conns: their
// result pumps keep running and a background sweeper re-routes
// stragglers (e.g. a deferral pushed by a worker that had not yet
// re-pinned), so nothing a retired shard still holds is ever lost.
// Workers observe the flip through the ring-epoch field every pull
// response carries and re-pin via their RePin hook.
//
// Neither old epochs nor retired conns are kept forever. The frontend
// counts the in-flight queries dispatched under each epoch; an epoch
// whose count has drained to zero (and that has a newer successor) is
// quiesced and collapsed out of the installed list, so the Complete
// fan-out stays bounded under continuous resharding. A retired member
// finalizes once every epoch that knew it has collapsed and two
// consecutive straggler sweeps came back empty: its cumulative
// counters are folded into the merged Stats baseline, and its pump and
// sweeper terminate instead of polling a drained shard forever.
//
// Membership is also discoverable at runtime: every reshard broadcast
// carries the new (epoch, members, addrs, weights), each shard
// republishes it through the Membership verb, and SyncMembership lets
// a standalone frontend adopt the authority's flip — polled only on
// epoch change — without redialing from a static address list.

// shardPullSlice bounds, in trace seconds, how long a frontend Pull
// parks on one shard before re-sweeping the others for work.
const shardPullSlice = 0.25

// retiredSweepInterval is the trace-seconds cadence at which a
// removed shard is re-swept for straggler queries.
const retiredSweepInterval = 0.25

// retiredEmptySweeps is how many consecutive empty straggler sweeps a
// fully-quiesced retired member must report before it is finalized.
// The grace rounds cover the re-route window for stale foreign
// frontends that still route by a pre-flip membership.
const retiredEmptySweeps = 2

// ShardedLBConfig parameterizes the sharded frontend.
type ShardedLBConfig struct {
	// Shards are the per-shard connections, one per LBServer. With
	// the default modulus placement (VNodes == 0, Members nil),
	// Shards[i] must serve the shard loadbalancer.ShardOf assigns
	// index i.
	Shards []LBConn
	// Members are the ring member IDs, parallel to Shards. Nil
	// defaults to 0..len(Shards)-1. Member IDs are never reused: a
	// removed member stays retired for the frontend's lifetime.
	Members []int
	// VNodes selects the placement: 0 keeps the legacy static-modulus
	// assignment (bit-identical to ShardOf) as long as membership
	// stays contiguous 0..N-1, falling back to a consistent-hash ring
	// with loadbalancer.DefaultVNodes otherwise; > 0 always uses a
	// consistent-hash ring with that many virtual nodes per shard,
	// the minimal-disruption placement for tiers that reshard.
	VNodes int
	// Clock converts long-poll waits (trace seconds) to wall time,
	// exactly as the shards themselves do.
	Clock *Clock
	// PumpWait is the long-poll duration (trace seconds) of each
	// background result pump. Zero defaults to 0.5.
	PumpWait float64
	// DegradeThreshold is the number of consecutive failed dispatches
	// (or result-pump polls) against one shard before the frontend
	// marks the member degraded: new submits spill to the ring's next
	// owner and the degraded count surfaces in merged Stats, so the
	// controller can trigger a reshard. The first success un-degrades.
	// Zero defaults to 3; negative disables degradation.
	DegradeThreshold int
	// Weights, when set, makes placement capacity-aware: each epoch's
	// ring is built with loadbalancer.NewWeightedRing over the weights
	// the callback returns for that epoch's membership (a shard's
	// worker-group size, in the harness), so a shard with fewer workers
	// owns a proportionally smaller key share instead of its equal
	// 1/N slice. Weights missing from the map or <= 0 count as 1.
	// Every frontend of a tier must compute identical weights (or
	// follow the authority via SyncMembership, which carries them).
	Weights func(members []int) map[int]int
}

// epochRing is one installed placement epoch: the ring plus the
// member connections as of that epoch. Epochs are immutable once
// installed; the newest one routes submits, and completions fan out
// across all of them so a query registered under any epoch still
// finds its shard.
type epochRing struct {
	epoch   int
	ring    *loadbalancer.Ring
	members []int    // sorted ascending
	conns   []LBConn // parallel to members
	weights []int    // parallel to members; nil when placement is unweighted
	slot    map[int]int
}

func (e *epochRing) conn(member int) LBConn {
	if i, ok := e.slot[member]; ok {
		return e.conns[i]
	}
	return nil
}

// ShardedLB partitions queries across independent LBServer shards by
// consistent hashing and re-exposes them as one LBConn:
//
//   - Submit / SubmitBatch route each query to its owning shard under
//     the current ring epoch (batches fan out per shard concurrently,
//     and a whole batch lands in exactly one epoch);
//   - PollResults merges the shards' result streams: one background
//     pump per shard long-polls its shard and lands results in a
//     shared buffer with LBServer-identical wait semantics (pumps
//     start lazily on the first PollResults call, so a frontend used
//     only for control-plane fan-out never consumes results);
//   - Pull sweeps the shards (retired ones included) from a rotating
//     start for dispatchable work, parking on one shard at a time
//     between sweeps;
//   - Complete routes each finished item to its owning shard under
//     every epoch — the non-owners treat the delivery as a no-op;
//   - Configure broadcasts with the current ring epoch stamped;
//     Stats merges the shards' reports;
//   - Resharding / AddShard / RemoveShard change membership at
//     runtime (see the file comment for the migration protocol).
//
// Exactly one process may poll results through a given query's shard
// — the same destructive-read contract a single LBServer has.
type ShardedLB struct {
	cfg    ShardedLBConfig
	ctx    context.Context
	cancel context.CancelFunc

	// ringMu guards the epoch list and the retired set. Submit fan-out
	// holds it for reading across the whole batch flight, which is the
	// write barrier that makes a reshard flip atomic per batch.
	ringMu  sync.RWMutex
	epochs  []epochRing
	retired map[int]LBConn // removed member -> conn, kept for stragglers
	// sweep is the immutable conn list Pull sweeps (current members in
	// ascending order, then retired members), rebuilt on every
	// reshard so the per-pull snapshot is a slice read, not a copy.
	sweep []LBConn

	// reshardMu serializes membership changes end to end (flip +
	// drain), so two concurrent reshards cannot interleave their
	// migrations.
	reshardMu sync.Mutex

	// Epoch-liveness accounting, behind the quiescence collapse.
	// liveEpoch maps each in-flight query ID admitted through
	// SubmitBatch (or migrated by a drain) to the epoch it was
	// dispatched under; epochLive counts in-flight queries per epoch.
	// Blocking Submits count in epochLive without an ID entry — their
	// results return on the call itself, not through a pump. An epoch
	// with a zero count and a newer successor is quiesced:
	// collapseQuiescedLocked drops it from the installed list. liveMu
	// is a leaf lock, taken under ringMu; curEpoch mirrors the newest
	// epoch so decrement paths can skip the collapse attempt without
	// touching ringMu.
	liveMu    sync.Mutex
	liveEpoch map[int]int
	epochLive map[int]int
	curEpoch  atomic.Int64

	// addrMu guards the advertised member addresses (SetMemberAddr /
	// Membership): the dial strings a following frontend needs to reach
	// members it has never seen.
	addrMu      sync.Mutex
	memberAddrs map[int]string

	// cfgMu guards the last configured policy AND serializes policy
	// broadcasts: a reshard re-broadcasts lastCfg with the new epoch
	// stamp, and without the serialization it could interleave with a
	// concurrent Configure and overwrite a newer threshold with a
	// stale one on some shards.
	cfgMu   sync.Mutex
	lastCfg ConfigureLBRequest

	// Result merge state: pumps append, PollResults drains.
	resMu   sync.Mutex
	results []QueryResponse
	wake    notifier
	pumps   sync.WaitGroup

	// pumpMu guards lazy pump startup; pumped tracks the members whose
	// pump is already running (member IDs are never reused, so a
	// member maps to one conn forever). pumpsUp short-circuits
	// startPumps once the initial scan has run — PollResults calls it
	// on every poll, and reshardLocked starts pumps for members added
	// later, so re-scanning would be pure lock traffic. finished marks
	// retired members that finalized: their pump exits on its next
	// poll cycle and never restarts.
	pumpMu   sync.Mutex
	pumping  bool
	pumped   map[int]bool
	finished map[int]bool
	pumpsUp  atomic.Bool

	// rr rotates Pull's sweep start across calls so concurrent
	// frontend pullers spread over the shards.
	rr atomic.Uint64

	// statsMu guards the carried tick counters: a shard's Stats call
	// destructively resets its since-tick counters, so when a later
	// shard's poll fails mid-merge the already-reset counters are
	// stashed here and folded into the next successful merge instead
	// of vanishing from the controller's demand estimate. It is held
	// across the whole merge, which also serializes the merge against
	// retired-member finalization — a finalizing member's last poll
	// must fold into retiredBase exactly once, never alongside a
	// concurrent merge poll of the same conn. retiredBase accumulates
	// the cumulative counters of finalized members, so their completed
	// and dropped work stays visible after their conns stop being
	// polled.
	statsMu       sync.Mutex
	carryArrivals int
	carryTimeouts int
	retiredBase   LBStats

	// Degradation state. A member that fails DegradeThreshold
	// consecutive dispatches or pump polls is marked degraded; while
	// marked, new submits owned by it spill to the ring's next owner
	// (see shardFor) and the merged Stats report the count. The first
	// success resets the streak and restores normal placement.
	// degradeMu is a leaf lock (safe under ringMu); degradedN mirrors
	// len(degraded) so the healthy-tier placement fast path is one
	// atomic load, no lock.
	degradeMu   sync.Mutex
	memberFails map[int]int
	degraded    map[int]bool
	degradedN   atomic.Int32
}

// SplitShardAddrs parses a comma-separated shard address list,
// trimming whitespace and dropping empty entries (a trailing comma
// is not a shard). The cmd binaries share it so every -shard-addrs
// flag parses identically — the list order defines the initial ring
// members 0..N-1, and must match on every process.
func SplitShardAddrs(csv string) []string {
	var addrs []string
	for _, a := range strings.Split(csv, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// DialShardedLB dials every shard of a comma-separated address list
// with DialLB and wraps the connections in a ShardedLB frontend —
// the standalone client's and controller's way onto a sharded tier.
// vnodes selects the placement exactly as ShardedLBConfig.VNodes
// does: 0 is the legacy static modulus, > 0 a consistent-hash ring.
func DialShardedLB(transport, addrCSV string, codec Codec, clock *Clock, vnodes int) (*ShardedLB, error) {
	addrs := SplitShardAddrs(addrCSV)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses in %q", addrCSV)
	}
	conns := make([]LBConn, len(addrs))
	for i, a := range addrs {
		conn, err := DialLB(transport, a, codec)
		if err != nil {
			return nil, fmt.Errorf("cluster: dialing shard %d: %w", i, err)
		}
		conns[i] = conn
	}
	s, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock, VNodes: vnodes})
	if err != nil {
		return nil, err
	}
	for i, a := range addrs {
		s.SetMemberAddr(i, a)
	}
	return s, nil
}

// buildRing constructs the placement for one epoch's membership under
// the config's VNodes policy. weights, when non-nil, overrides the
// config's Weights callback — a following frontend builds the exact
// ring the authority advertised rather than re-deriving it. The
// returned weight vector is parallel to the sorted members and nil
// when the placement is unweighted.
func (cfg *ShardedLBConfig) buildRing(members []int, weights map[int]int) (*loadbalancer.Ring, []int) {
	if weights == nil && cfg.Weights != nil {
		weights = cfg.Weights(members)
	}
	vec := make([]int, len(members))
	uniform := true
	for i, m := range members {
		if w := weights[m]; w > 0 {
			vec[i] = w
		} else {
			vec[i] = 1
		}
		if vec[i] != vec[0] {
			uniform = false
		}
	}
	if uniform {
		// Equal weights are the unweighted placement bit for bit, so the
		// legacy modulus shape (and NewRing) stay reachable under a
		// Weights callback that happens to return a flat vector.
		if cfg.VNodes == 0 && contiguousMembers(members) {
			return loadbalancer.NewModulusRing(len(members)), nil
		}
		return loadbalancer.NewRing(members, cfg.VNodes), nil
	}
	return loadbalancer.NewWeightedRing(members, weights, cfg.VNodes), vec
}

// contiguousMembers reports whether sorted members are exactly 0..N-1
// — the only shape the legacy modulus placement is defined over.
func contiguousMembers(members []int) bool {
	for i, m := range members {
		if m != i {
			return false
		}
	}
	return true
}

// NewShardedLB builds the frontend over the given shard connections.
func NewShardedLB(cfg ShardedLBConfig) (*ShardedLB, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: sharded LB needs at least one shard conn")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("cluster: sharded LB needs a clock")
	}
	if cfg.PumpWait <= 0 {
		cfg.PumpWait = 0.5
	}
	if cfg.DegradeThreshold == 0 {
		cfg.DegradeThreshold = 3
	}
	members := cfg.Members
	if members == nil {
		members = make([]int, len(cfg.Shards))
		for i := range members {
			members[i] = i
		}
	}
	if len(members) != len(cfg.Shards) {
		return nil, fmt.Errorf("cluster: %d members for %d shard conns", len(members), len(cfg.Shards))
	}
	e := epochRing{
		epoch:   0,
		members: append([]int(nil), members...),
		conns:   append([]LBConn(nil), cfg.Shards...),
		slot:    make(map[int]int, len(members)),
	}
	sort.Sort(&memberSort{e.members, e.conns})
	for i, m := range e.members {
		if _, dup := e.slot[m]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard member %d", m)
		}
		e.slot[m] = i
	}
	e.ring, e.weights = cfg.buildRing(e.members, nil)
	ctx, cancel := context.WithCancel(context.Background())
	s := &ShardedLB{
		cfg: cfg, ctx: ctx, cancel: cancel,
		epochs:      []epochRing{e},
		retired:     map[int]LBConn{},
		pumped:      map[int]bool{},
		finished:    map[int]bool{},
		sweep:       append([]LBConn(nil), e.conns...),
		memberFails: map[int]int{},
		degraded:    map[int]bool{},
		liveEpoch:   map[int]int{},
		epochLive:   map[int]int{},
		memberAddrs: map[int]string{},
	}
	s.curEpoch.Store(int64(e.epoch))
	return s, nil
}

// memberSort co-sorts a member list and its parallel conns.
type memberSort struct {
	members []int
	conns   []LBConn
}

func (s *memberSort) Len() int           { return len(s.members) }
func (s *memberSort) Less(i, j int) bool { return s.members[i] < s.members[j] }
func (s *memberSort) Swap(i, j int) {
	s.members[i], s.members[j] = s.members[j], s.members[i]
	s.conns[i], s.conns[j] = s.conns[j], s.conns[i]
}

// cur returns the newest epoch. Callers must hold ringMu.
func (s *ShardedLB) cur() *epochRing { return &s.epochs[len(s.epochs)-1] }

// Shards returns the number of shards currently in the ring.
func (s *ShardedLB) Shards() int {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return len(s.cur().members)
}

// Epoch returns the current ring epoch (0 until the first reshard).
func (s *ShardedLB) Epoch() int {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.cur().epoch
}

// Members returns the current ring membership, sorted ascending.
func (s *ShardedLB) Members() []int {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return append([]int(nil), s.cur().members...)
}

// ShardConn returns the connection serving the i-th member (ascending
// member order) of the current ring — workers pin themselves to one
// shard with it (the harness assigns worker w to member index w mod
// N).
func (s *ShardedLB) ShardConn(i int) LBConn {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.cur().conns[i]
}

// MemberConn returns the connection serving a member ID, retired
// members included (their stragglers still resolve there), or nil.
func (s *ShardedLB) MemberConn(m int) LBConn {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	if c := s.cur().conn(m); c != nil {
		return c
	}
	return s.retired[m]
}

// stealList is one worker's cached list of the conns it may steal
// from: every current ring member's conn, in ascending member order,
// except the member the worker is pinned to (member index id mod N —
// the harness's striping). The list is rebuilt only when the ring
// epoch moves, so the lookup an empty pull makes is one atomic load.
// A stealList belongs to a single worker loop goroutine, and the slice
// lookup returns stays valid until its next call.
type stealList struct {
	fe    *ShardedLB
	id    int
	built bool
	epoch int
	conns []LBConn
}

// lookup returns the steal targets for the frontend's current epoch.
func (l *stealList) lookup() []LBConn {
	if l.built && int(l.fe.curEpoch.Load()) == l.epoch {
		return l.conns
	}
	l.fe.ringMu.RLock()
	defer l.fe.ringMu.RUnlock()
	cur := l.fe.cur()
	l.conns = make([]LBConn, 0, len(cur.conns))
	for j, c := range cur.conns {
		if j != l.id%len(cur.conns) {
			l.conns = append(l.conns, c)
		}
	}
	l.built, l.epoch = true, cur.epoch
	return l.conns
}

// Close stops the result pumps and retired-shard sweepers. In-flight
// pump polls are cancelled; callers drain all expected results before
// closing, exactly as they would before tearing down a single
// LBServer's transport.
func (s *ShardedLB) Close() {
	s.cancel()
	s.pumps.Wait()
}

// shardFor returns the slot index query id routes to under cur:
// normally the ring owner, but a degraded owner's new submits spill to
// the ring's next owner while it is marked, so an unreachable shard
// does not blackhole its hash range. The spill target must itself be a
// current, healthy member; otherwise the primary keeps the query — a
// degraded shard is slow or unreachable, not forgotten, and whatever
// lands there still resolves once it recovers (or is migrated when the
// controller reshards it away). Callers hold ringMu for reading.
func (s *ShardedLB) shardFor(cur *epochRing, id int) int {
	owner := cur.ring.Owner(id)
	if s.degradedN.Load() == 0 {
		return cur.slot[owner]
	}
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	if !s.degraded[owner] {
		return cur.slot[owner]
	}
	if next := cur.ring.NextOwner(id); next != owner && !s.degraded[next] {
		if i, ok := cur.slot[next]; ok {
			return i
		}
	}
	return cur.slot[owner]
}

// recordDispatch feeds one per-shard call outcome into the degradation
// tracker: failures extend the member's streak (degrading it at the
// threshold), a success resets it.
func (s *ShardedLB) recordDispatch(member int, err error) {
	if err != nil {
		s.recordMemberFailure(member)
	} else {
		s.recordMemberSuccess(member)
	}
}

// recordMemberFailure counts one failed dispatch or pump poll against
// a member, marking it degraded at the configured threshold.
func (s *ShardedLB) recordMemberFailure(m int) {
	if s.cfg.DegradeThreshold <= 0 {
		return
	}
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	s.memberFails[m]++
	if s.memberFails[m] >= s.cfg.DegradeThreshold && !s.degraded[m] {
		s.degraded[m] = true
		s.degradedN.Add(1)
	}
}

// recordMemberSuccess resets a member's failure streak and, if it was
// degraded, restores normal placement for its hash range.
func (s *ShardedLB) recordMemberSuccess(m int) {
	if s.cfg.DegradeThreshold <= 0 {
		return
	}
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	if s.memberFails[m] == 0 && !s.degraded[m] {
		return
	}
	s.memberFails[m] = 0
	if s.degraded[m] {
		delete(s.degraded, m)
		s.degradedN.Add(-1)
	}
}

// DegradedMembers returns the member IDs currently marked degraded,
// sorted ascending. The controller reads the count from merged Stats
// (LBStats.DegradedShards); tests and operators read identities here.
func (s *ShardedLB) DegradedMembers() []int {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	out := make([]int, 0, len(s.degraded))
	for m := range s.degraded {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// Submit admits one query on its owning shard (under the current
// epoch) and blocks until it completes or drops. Unlike SubmitBatch,
// the ring lock cannot be held for the call's duration (a blocking
// Submit lasts until the query resolves, which would stall every
// reshard behind it), so a reshard can slip between the owner lookup
// and the dispatch; the worst case is bounded and mirrors the
// documented migration semantics for blocking waiters — the query
// lands on a just-retired shard and the straggler sweep resolves it
// as a drop. It is never lost or left hanging.
func (s *ShardedLB) Submit(ctx context.Context, q QueryMsg) (QueryResponse, error) {
	s.ringMu.RLock()
	cur := s.cur()
	epoch := cur.epoch
	conn := cur.conns[s.shardFor(cur, q.ID)]
	// A blocking waiter keeps its dispatch epoch live (so Complete
	// fan-out still covers its shard) but needs no per-ID entry — the
	// result returns on this call, never through a pump.
	s.liveMu.Lock()
	s.epochLive[epoch]++
	s.liveMu.Unlock()
	s.ringMu.RUnlock()
	resp, err := conn.Submit(ctx, q)
	s.epochDone(epoch)
	return resp, err
}

// epochDone releases one blocking Submit's hold on its dispatch epoch,
// collapsing the epoch if the release drained it and it is no longer
// current.
func (s *ShardedLB) epochDone(epoch int) {
	s.liveMu.Lock()
	s.epochLive[epoch]--
	drained := s.epochLive[epoch] <= 0
	s.liveMu.Unlock()
	if drained && int(s.curEpoch.Load()) != epoch {
		s.maybeCollapse()
	}
}

// SubmitBatch splits the batch by owning shard under the current ring
// epoch and fans the per-shard batches out concurrently. The epoch is
// held (shared-locked) for the whole flight: a Resharding call
// barriers behind in-flight batches, so every batch lands entirely in
// one epoch — never straddling two rings.
func (s *ShardedLB) SubmitBatch(ctx context.Context, req SubmitRequest) error {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	cur := s.cur()
	n := len(cur.conns)
	if n == 1 {
		s.trackBatch(cur.epoch, req.Queries)
		err := cur.conns[0].SubmitBatch(ctx, req)
		s.recordDispatch(cur.members[0], err)
		if err != nil {
			s.untrackBatch(cur.epoch, req.Queries)
		}
		return err
	}
	// The fan-out scratch (per-shard groups, error slots and the join)
	// is pooled: the goroutines all join before return, and errors.Join
	// copies the non-nil errors, so nothing references the scratch
	// afterwards.
	sc := getSubmitScratch(n)
	defer putSubmitScratch(sc)
	last := -1
	for _, q := range req.Queries {
		sh := s.shardFor(cur, q.ID)
		sc.groups[sh] = append(sc.groups[sh], q)
		last = max(last, sh)
	}
	s.trackBatch(cur.epoch, req.Queries)
	// Every group but the last flies on its own goroutine; the last is
	// sent inline, so a batch that lands on a single shard — the usual
	// case for the small batches a live trace submits — starts no
	// goroutine and allocates nothing.
	for i := 0; i < last; i++ {
		if len(sc.groups[i]) > 0 {
			sc.wg.Add(1)
			go func(i int) {
				defer sc.wg.Done()
				s.submitGroup(ctx, cur, i, req.Pool, sc)
			}(i)
		}
	}
	if last >= 0 {
		s.submitGroup(ctx, cur, last, req.Pool, sc)
	}
	sc.wg.Wait()
	return errors.Join(sc.errs...)
}

// submitGroup sends shard i's group of a fanned-out SubmitBatch and
// records its outcome in the scratch's error slot.
func (s *ShardedLB) submitGroup(ctx context.Context, cur *epochRing, i int, pool string, sc *submitScratch) {
	g := sc.groups[i]
	err := cur.conns[i].SubmitBatch(ctx, SubmitRequest{Queries: g, Pool: pool})
	s.recordDispatch(cur.members[i], err)
	if err != nil {
		s.untrackBatch(cur.epoch, g)
	}
	sc.errs[i] = err
}

// trackBatch tags each query with its dispatch epoch BEFORE the
// dispatch flies: results race the submit call, and a landing result
// must find the tag to release it. Callers hold ringMu for reading,
// which pins epoch as current. A query already tagged (a client retry
// re-admitting an ID, or a drain migrating it) moves to the new epoch.
func (s *ShardedLB) trackBatch(epoch int, qs []QueryMsg) {
	s.liveMu.Lock()
	for i := range qs {
		id := qs[i].ID
		if old, ok := s.liveEpoch[id]; ok {
			s.epochLive[old]--
		}
		s.liveEpoch[id] = epoch
		s.epochLive[epoch]++
	}
	s.liveMu.Unlock()
}

// untrackBatch releases queries whose dispatch failed outright: the
// shard never admitted them (or, if it did and the reply was lost,
// their results land through the pump and find the tag already gone —
// a harmless no-op either way, though in the lost-reply corner the
// dispatch epoch may collapse while the silent registration persists;
// its completion then relies on the lease-expiry reclaim rather than
// the epoch fan-out). Skipping IDs re-tagged meanwhile keeps a
// concurrent re-admission's newer tag intact.
func (s *ShardedLB) untrackBatch(epoch int, qs []QueryMsg) {
	s.liveMu.Lock()
	drained := false
	for i := range qs {
		id := qs[i].ID
		if e, ok := s.liveEpoch[id]; ok && e == epoch {
			delete(s.liveEpoch, id)
			s.epochLive[epoch]--
			drained = drained || s.epochLive[epoch] <= 0
		}
	}
	s.liveMu.Unlock()
	if drained && int(s.curEpoch.Load()) != epoch {
		s.maybeCollapse()
	}
}

// untrackResults releases landed results' epoch tags and collapses any
// non-current epoch the landings drained.
func (s *ShardedLB) untrackResults(results []QueryResponse) {
	cur := int(s.curEpoch.Load())
	collapse := false
	s.liveMu.Lock()
	for i := range results {
		id := results[i].ID
		e, ok := s.liveEpoch[id]
		if !ok {
			continue
		}
		delete(s.liveEpoch, id)
		s.epochLive[e]--
		if s.epochLive[e] <= 0 && e != cur {
			collapse = true
		}
	}
	s.liveMu.Unlock()
	if collapse {
		s.maybeCollapse()
	}
}

// maybeCollapse takes the ring write lock and collapses quiesced
// epochs. Decrement paths call it only when they drained a non-current
// epoch, so the write-lock traffic is per quiescence event, not per
// result.
func (s *ShardedLB) maybeCollapse() {
	s.ringMu.Lock()
	s.collapseQuiescedLocked()
	s.ringMu.Unlock()
}

// collapseQuiescedLocked drops installed epochs with no live queries
// (the newest epoch always stays: it routes new submits). The kept
// epochs go into a fresh slice — Complete snapshots s.epochs by
// reference, so the array a snapshot points at must never be mutated.
// Callers hold ringMu exclusively.
func (s *ShardedLB) collapseQuiescedLocked() {
	if len(s.epochs) == 1 {
		return
	}
	s.liveMu.Lock()
	keep := make([]epochRing, 0, len(s.epochs))
	for i := range s.epochs {
		e := &s.epochs[i]
		if i == len(s.epochs)-1 || s.epochLive[e.epoch] > 0 {
			keep = append(keep, *e)
		} else {
			delete(s.epochLive, e.epoch)
		}
	}
	s.liveMu.Unlock()
	if len(keep) != len(s.epochs) {
		s.epochs = keep
	}
}

// submitScratch recycles SubmitBatch's fan-out state — the per-shard
// query groups (inner slice capacity included), the error slots and
// the WaitGroup that joins the dispatches — so a steady stream of
// batches does not allocate per call. The grouped queries are value
// copies of the caller's, and every shard dispatch joins before the
// scratch is returned, so recycling cannot alias a batch still in
// flight.
type submitScratch struct {
	groups [][]QueryMsg
	errs   []error
	wg     sync.WaitGroup
}

var submitScratchPool = sync.Pool{New: func() interface{} { return new(submitScratch) }}

// getSubmitScratch returns a scratch sized for n shards with empty
// groups and nil error slots.
func getSubmitScratch(n int) *submitScratch {
	sc := submitScratchPool.Get().(*submitScratch)
	if cap(sc.groups) < n {
		old := sc.groups[:cap(sc.groups)]
		sc.groups = make([][]QueryMsg, n)
		copy(sc.groups, old) // keep the inner capacity already grown
		sc.errs = make([]error, n)
	}
	sc.groups = sc.groups[:n]
	sc.errs = sc.errs[:n]
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
		sc.errs[i] = nil
	}
	return sc
}

func putSubmitScratch(sc *submitScratch) { submitScratchPool.Put(sc) }

// startPumps launches the result pumps lazily on first use, and marks
// the frontend as pumping so later reshards start pumps for the
// shards they add.
func (s *ShardedLB) startPumps() {
	if s.pumpsUp.Load() {
		return
	}
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	s.pumping = true
	s.ringMu.RLock()
	cur := s.cur()
	members := append([]int(nil), cur.members...)
	conns := append([]LBConn(nil), cur.conns...)
	for m, c := range s.retired {
		members = append(members, m)
		conns = append(conns, c)
	}
	s.ringMu.RUnlock()
	for i, m := range members {
		if !s.pumped[m] {
			s.pumped[m] = true
			s.pumps.Add(1)
			go s.pump(m, conns[i])
		}
	}
	s.pumpsUp.Store(true)
}

// pump long-polls one shard for results and lands them in the merged
// buffer. Results are appended before the error is inspected: an
// in-process poll cancelled at shutdown still returns the batch it
// popped, and dropping it would lose resolved queries. Retired
// shards keep their pump — stragglers completed there after a
// reshard still surface in the merged stream — until the member
// finalizes, at which point the pump exits instead of long-polling a
// drained shard forever.
//
// The pump doubles as the degradation tracker's health probe: poll
// failures extend the member's failure streak, and each successful
// poll — empty or not — resets it, which is what un-degrades a shard
// that came back without any new submits being risked on it first.
func (s *ShardedLB) pump(member int, conn LBConn) {
	defer s.pumps.Done()
	// The poll response is reused across iterations; the merged buffer
	// takes value copies of the results, so each element's Features
	// pointer is handed off by zeroing the element before the next poll
	// decodes into the struct — reusing that capacity would scribble on
	// results already landed in the stream.
	var resp ResultsResponse
	for s.ctx.Err() == nil {
		if s.pumpFinished(member) {
			return
		}
		err := PollResultsIntoConn(s.ctx, conn, ResultsRequest{Max: 1024, Wait: s.cfg.PumpWait}, &resp)
		if len(resp.Results) > 0 {
			s.resMu.Lock()
			s.results = append(s.results, resp.Results...)
			s.wake.wake()
			s.resMu.Unlock()
			s.untrackResults(resp.Results)
			for i := range resp.Results {
				resp.Results[i] = QueryResponse{}
			}
			// A failed poll leaves resp untouched: without the
			// truncation the next merge would append the zeroed
			// results as phantom query-0 responses.
			resp.Results = resp.Results[:0]
		}
		if err != nil {
			// Transient transport failure (or shutdown): back off so a
			// dead shard cannot spin the pump.
			if s.ctx.Err() == nil {
				s.recordMemberFailure(member)
			}
			s.cfg.Clock.SleepTraceCtx(s.ctx, 0.05)
			continue
		}
		s.recordMemberSuccess(member)
	}
}

// pumpFinished reports whether a member's pump should exit: its
// retirement finalized, so no result can ever surface there again.
func (s *ShardedLB) pumpFinished(member int) bool {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	return s.finished[member]
}

// PollResults drains the merged result buffer with the same wait
// semantics as LBServer.PollResults: req.Wait <= 0 is an explicit
// non-blocking poll; otherwise the call blocks until at least one
// result arrives from any shard or the wait expires.
func (s *ShardedLB) PollResults(ctx context.Context, req ResultsRequest) (ResultsResponse, error) {
	var resp ResultsResponse
	err := s.PollResultsInto(ctx, req, &resp)
	return resp, err
}

// PollResultsInto is PollResults decoding into the caller's response,
// reusing resp.Results' capacity. The caller owns the results until
// its next call with the same struct.
func (s *ShardedLB) PollResultsInto(ctx context.Context, req ResultsRequest, resp *ResultsResponse) error {
	s.startPumps()
	max := req.Max
	if max <= 0 {
		max = 256
	}
	if req.Wait <= 0 {
		s.resMu.Lock()
		s.takeInto(max, resp)
		s.resMu.Unlock()
		return nil
	}
	deadline := time.Now().Add(s.cfg.Clock.WallDuration(req.Wait)) //diffvet:allow walltime — long-poll deadline in wall time; the trace wait is already Clock-converted
	w := getWaiter()
	defer putWaiter(w)
	for {
		remain := time.Until(deadline) //diffvet:allow walltime — remaining wall budget of the Clock-converted long-poll deadline
		s.resMu.Lock()
		s.takeInto(max, resp)
		parked := len(resp.Results) == 0 && remain > 0
		if parked {
			s.wake.arm(w)
		} else {
			s.wake.disarm(w)
		}
		s.resMu.Unlock()
		if !parked {
			return nil
		}
		if r := w.park(remain, ctx.Done(), s.ctx.Done()); r == parkDone || r == parkClosed {
			s.resMu.Lock()
			s.wake.disarm(w)
			s.resMu.Unlock()
			if r == parkDone {
				return ctx.Err()
			}
			return ErrTransportClosed
		}
	}
}

// takeInto pops up to max merged results into resp.Results, reusing
// its capacity; an empty take leaves resp.Results at length zero (the
// buffer is kept). Callers must hold resMu.
func (s *ShardedLB) takeInto(max int, resp *ResultsResponse) {
	n := len(s.results)
	if n > max {
		n = max
	}
	resp.Results = append(resp.Results[:0], s.results[:n]...)
	s.results = append(s.results[:0], s.results[n:]...)
}

// sweepConns snapshots the connections Pull sweeps: current members
// in ascending order, then retired shards — a straggler parked in a
// retired shard's queue is still dispatchable work. The list is
// rebuilt only on reshard, so the per-pull cost is a pointer read.
func (s *ShardedLB) sweepConns() ([]LBConn, int) {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.sweep, s.cur().epoch
}

// rebuildSweepLocked recomputes the Pull sweep list. Callers hold
// ringMu exclusively.
func (s *ShardedLB) rebuildSweepLocked() {
	cur := s.cur()
	out := append([]LBConn(nil), cur.conns...)
	if len(s.retired) > 0 {
		ms := make([]int, 0, len(s.retired))
		for m := range s.retired {
			ms = append(ms, m)
		}
		sort.Ints(ms)
		for _, m := range ms {
			out = append(out, s.retired[m])
		}
	}
	s.sweep = out
}

// Pull sweeps the shards for dispatchable work, starting each round
// at a rotating shard so concurrent frontend pullers spread out. With
// req.Wait > 0 an empty sweep parks on the round's first shard for a
// bounded slice of the remaining wait, then re-sweeps — work arriving
// on any shard is picked up within one slice. Workers that should
// stay pinned to one shard (the multi-host layout) dial their shard
// directly instead of pulling through the frontend.
func (s *ShardedLB) Pull(ctx context.Context, req PullRequest) (PullResponse, error) {
	var resp PullResponse
	err := s.PullInto(ctx, req, &resp)
	return resp, err
}

// PullInto is Pull decoding into the caller's response, reusing
// resp.Queries' capacity across the sweep and across calls. The
// frontend's ring epoch overwrites whatever epoch the shard reported.
func (s *ShardedLB) PullInto(ctx context.Context, req PullRequest, resp *PullResponse) error {
	conns, epoch := s.sweepConns()
	n := len(conns)
	if n == 1 {
		err := PullIntoConn(ctx, conns[0], req, resp)
		resp.RingEpoch = epoch
		return err
	}
	var deadline float64
	if req.Wait > 0 {
		deadline = s.cfg.Clock.Now() + req.Wait
	}
	for {
		start := int(s.rr.Add(1)-1) % n
		sweep := req
		sweep.Wait = 0
		for i := 0; i < n; i++ {
			err := PullIntoConn(ctx, conns[(start+i)%n], sweep, resp)
			if err != nil || len(resp.Queries) > 0 {
				resp.RingEpoch = epoch
				return err
			}
		}
		if req.Wait <= 0 {
			resp.RingEpoch = epoch
			return nil
		}
		remain := deadline - s.cfg.Clock.Now()
		if remain <= 0 {
			resp.RingEpoch = epoch
			return nil
		}
		park := req
		park.Wait = min(remain, shardPullSlice)
		err := PullIntoConn(ctx, conns[start], park, resp)
		if err != nil || len(resp.Queries) > 0 {
			resp.RingEpoch = epoch
			return err
		}
	}
}

// Complete routes each finished item to the shard that owns its query
// ID under every installed epoch, fanning the per-shard reports out
// concurrently. The item's registration lives on exactly one of those
// shards (wherever it was last submitted or migrated to); the others
// treat the delivery as a no-op thanks to the LBServer's idempotent
// resolve machinery. The fan-out is what lets a completion raced by a
// reshard — or reported by a worker that pulled before the flip —
// always reach the shard that can resolve it.
func (s *ShardedLB) Complete(ctx context.Context, req CompleteRequest) error {
	s.ringMu.RLock()
	// Snapshotting the epoch list is a reference, not a copy: epochs
	// are immutable once installed and reshard appends copy-on-grow,
	// so the captured prefix stays valid outside the lock.
	epochs := s.epochs
	s.ringMu.RUnlock()

	last := &epochs[len(epochs)-1]
	if len(epochs) == 1 && len(last.conns) == 1 {
		return last.conns[0].Complete(ctx, req)
	}

	// Group items by owning member. With a single epoch (no reshard
	// yet — the overwhelmingly common case, and the steady-state data
	// path) grouping is slot-indexed slices with no per-item map
	// traffic, exactly like SubmitBatch. After a reshard the rare
	// multi-epoch path groups by member ID across every epoch (member
	// IDs are stable over the frontend's lifetime, so a member names
	// one conn forever — current or retired).
	var groups [][]CompleteItem
	var conns []LBConn
	if len(epochs) == 1 {
		groups = make([][]CompleteItem, len(last.conns))
		conns = last.conns
		for _, it := range req.Items {
			sh := last.slot[last.ring.Owner(it.ID)]
			groups[sh] = append(groups[sh], it)
		}
	} else {
		byMember := map[int][]CompleteItem{}
		connOf := map[int]LBConn{}
		var owners []int // per-item dedup scratch
		for _, it := range req.Items {
			owners = owners[:0]
			for e := len(epochs) - 1; e >= 0; e-- {
				m := epochs[e].ring.Owner(it.ID)
				dup := false
				for _, o := range owners {
					if o == m {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				// An epoch's owner always has a conn in that epoch
				// (removed members keep theirs in the epochs that
				// owned them), so no retired-map fallback is needed.
				owners = append(owners, m)
				connOf[m] = epochs[e].conn(m)
				byMember[m] = append(byMember[m], it)
			}
		}
		for m, g := range byMember {
			groups = append(groups, g)
			conns = append(conns, connOf[m])
		}
	}
	errs := make([]error, 0, len(groups))
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(conn LBConn, g []CompleteItem) {
			defer wg.Done()
			err := conn.Complete(ctx, CompleteRequest{
				WorkerID: req.WorkerID, Role: req.Role, Items: g,
			})
			if err != nil {
				errMu.Lock()
				errs = append(errs, err)
				errMu.Unlock()
			}
		}(conns[i], g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// broadcastConns snapshots every reachable conn — current members and
// retired shards — for policy broadcasts.
func (s *ShardedLB) broadcastConns() []LBConn {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	out := append([]LBConn(nil), s.cur().conns...)
	for _, c := range s.retired {
		out = append(out, c)
	}
	return out
}

// Configure broadcasts the policy update to every shard — retired
// ones included, so their pinned workers see epoch flips too — with
// the current ring epoch and membership stamped. The policy is
// remembered and re-broadcast (with the new stamp) whenever
// membership changes.
func (s *ShardedLB) Configure(ctx context.Context, req ConfigureLBRequest) error {
	// cfgMu is held across the broadcast so a reshard's re-broadcast
	// of the remembered policy cannot interleave with (and partially
	// overwrite) a newer policy in flight.
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	s.lastCfg = req
	s.ringMu.RLock()
	cur := s.cur()
	s.ringMu.RUnlock()
	// cur stays valid outside the lock: epochs are immutable once
	// installed, and a collapse swaps the slice without touching the
	// array a snapshot points at.
	s.stampMembership(&req, cur)
	return s.broadcast(ctx, req)
}

// broadcast fans a configure message out to every reachable shard.
func (s *ShardedLB) broadcast(ctx context.Context, req ConfigureLBRequest) error {
	conns := s.broadcastConns()
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn LBConn) {
			defer wg.Done()
			errs[i] = conn.Configure(ctx, req)
		}(i, conn)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats merges the shards' control-plane reports — retired shards
// included, whose counters cover queries they resolved before (or
// while) being drained: queue lengths, arrival rates, and counters
// sum; Now is the latest shard clock. Every shard is polled even
// after a failure — a poll destructively resets that shard's
// since-tick counters, so the counters gathered alongside a failed
// shard are carried over and folded into the next successful merge
// rather than dropped from the demand estimate.
func (s *ShardedLB) Stats(ctx context.Context) (LBStats, error) {
	// statsMu is held across the whole merge (control-plane cadence, so
	// the hold is cheap): it guards the carried counters and serializes
	// the merge against retired-member finalization, whose last
	// destructive poll of a conn must never interleave with a merge
	// poll of the same conn.
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	conns := s.broadcastConns()
	var out LBStats
	var firstErr error
	for _, conn := range conns {
		st, err := conn.Stats(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if st.Now > out.Now {
			out.Now = st.Now
		}
		out.LightQueueLen += st.LightQueueLen
		out.HeavyQueueLen += st.HeavyQueueLen
		out.LightArrivalRate += st.LightArrivalRate
		out.HeavyArrivalRate += st.HeavyArrivalRate
		out.ArrivalsSinceTick += st.ArrivalsSinceTick
		out.TimeoutsSinceTick += st.TimeoutsSinceTick
		out.Completed += st.Completed
		out.Dropped += st.Dropped
		out.InFlight += st.InFlight
		out.Reclaims += st.Reclaims
		out.ShedRedelivery += st.ShedRedelivery
		out.LateCompletions += st.LateCompletions
		out.DegradedShards += st.DegradedShards
	}
	// The frontend's own degradation view rides on top of whatever the
	// shards reported (an LBServer never sets DegradedShards itself).
	out.DegradedShards += int(s.degradedN.Load())
	// Finalized retired members are no longer polled; their cumulative
	// counters live on in the accumulated baseline.
	out.Completed += s.retiredBase.Completed
	out.Dropped += s.retiredBase.Dropped
	out.Reclaims += s.retiredBase.Reclaims
	out.ShedRedelivery += s.retiredBase.ShedRedelivery
	out.LateCompletions += s.retiredBase.LateCompletions
	if firstErr != nil {
		s.carryArrivals += out.ArrivalsSinceTick
		s.carryTimeouts += out.TimeoutsSinceTick
		return LBStats{}, firstErr
	}
	out.ArrivalsSinceTick += s.carryArrivals
	out.TimeoutsSinceTick += s.carryTimeouts
	s.carryArrivals, s.carryTimeouts = 0, 0
	return out, nil
}

// Resharding installs a new ring epoch over the given membership.
// conns must provide a connection for every member not already in the
// ring; members being removed keep their existing connection and
// become retired. The flip is atomic with respect to submit batches
// (each lands entirely in one epoch); queued queries on departing
// shards are drain-pulled and re-submitted to their new owners, and a
// background sweeper keeps re-routing stragglers that reach a retired
// shard afterwards (a deferral from a not-yet-re-pinned worker).
// Member IDs are never reused: re-adding a retired member is an
// error, because its old conn may still hold registrations.
//
// Scope: the flip originates at THIS frontend (plus the workers,
// which follow the epoch their pull responses carry), but it is
// discoverable: the re-broadcast stamps every shard with the new
// (epoch, members, addrs, weights), each shard republishes them
// through the Membership verb, and another frontend — a standalone
// diffserve-client dialed with its own -shard-addrs — adopts the flip
// by calling SyncMembership when it notices the epoch move. Until it
// does, it keeps routing by its last-known membership: queries it
// sends to a retired shard are re-routed by the straggler sweep
// (within ~2 trace-seconds of added latency), which is also why a
// retired member keeps a grace window before finalizing.
func (s *ShardedLB) Resharding(ctx context.Context, members []int, conns map[int]LBConn) error {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	return s.reshardLocked(ctx, members, conns, -1, nil)
}

// AddShard grows the ring by one member served by conn.
func (s *ShardedLB) AddShard(ctx context.Context, member int, conn LBConn) error {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	cur := s.Members()
	for _, m := range cur {
		if m == member {
			return fmt.Errorf("cluster: shard member %d already in the ring", member)
		}
	}
	return s.reshardLocked(ctx, append(cur, member), map[int]LBConn{member: conn}, -1, nil)
}

// RemoveShard shrinks the ring by one member, migrating its queued
// queries to the survivors. The member's connection stays reachable
// (retired) so in-flight completions and deferrals still resolve.
func (s *ShardedLB) RemoveShard(ctx context.Context, member int) error {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	cur := s.Members()
	next := make([]int, 0, len(cur))
	for _, m := range cur {
		if m != member {
			next = append(next, m)
		}
	}
	if len(next) == len(cur) {
		return fmt.Errorf("cluster: shard member %d not in the ring", member)
	}
	if len(next) == 0 {
		return fmt.Errorf("cluster: cannot remove the last shard member %d", member)
	}
	return s.reshardLocked(ctx, next, nil, -1, nil)
}

// reshardLocked is the membership-change core. targetEpoch < 0
// installs the next epoch number (a locally-originated flip);
// SyncMembership passes the authority's epoch so followers and
// authority agree on epoch identity. weights, when non-nil, overrides
// the config's Weights callback for this epoch's ring (the authority's
// advertised vector). Callers hold reshardMu.
func (s *ShardedLB) reshardLocked(ctx context.Context, members []int, newConns map[int]LBConn, targetEpoch int, weights map[int]int) error {
	if len(members) == 0 {
		return fmt.Errorf("cluster: resharding to an empty membership")
	}

	s.ringMu.Lock()
	cur := s.cur()
	if targetEpoch < 0 {
		targetEpoch = cur.epoch + 1
	} else if targetEpoch <= cur.epoch {
		s.ringMu.Unlock()
		return fmt.Errorf("cluster: resharding to epoch %d behind current epoch %d", targetEpoch, cur.epoch)
	}
	next := epochRing{
		epoch:   targetEpoch,
		members: append([]int(nil), members...),
		slot:    make(map[int]int, len(members)),
	}
	sort.Ints(next.members)
	next.conns = make([]LBConn, len(next.members))
	for i, m := range next.members {
		if _, dup := next.slot[m]; dup {
			s.ringMu.Unlock()
			return fmt.Errorf("cluster: duplicate shard member %d", m)
		}
		next.slot[m] = i
		switch {
		case cur.conn(m) != nil:
			next.conns[i] = cur.conn(m)
		case newConns[m] != nil:
			if _, was := s.retired[m]; was {
				s.ringMu.Unlock()
				return fmt.Errorf("cluster: member %d was retired and cannot rejoin; use a fresh member ID", m)
			}
			next.conns[i] = newConns[m]
		default:
			s.ringMu.Unlock()
			return fmt.Errorf("cluster: no connection for new shard member %d", m)
		}
	}
	next.ring, next.weights = s.cfg.buildRing(next.members, weights)
	var removed []LBConn
	var removedMembers []int
	for i, m := range cur.members {
		if _, keep := next.slot[m]; !keep {
			s.retired[m] = cur.conns[i]
			removed = append(removed, cur.conns[i])
			removedMembers = append(removedMembers, m)
		}
	}
	// The flip: acquiring ringMu exclusively barriered behind every
	// in-flight submit batch, so batches before this line routed
	// entirely by the old ring and batches after route by the new one.
	s.epochs = append(s.epochs, next)
	s.curEpoch.Store(int64(next.epoch))
	// Quiesced predecessors collapse under the same exclusive hold, so
	// 50 back-to-back reshards of an idle tier still leave a
	// single-digit epoch list, not 50 rings fanning every Complete.
	s.collapseQuiescedLocked()
	s.rebuildSweepLocked()
	s.ringMu.Unlock()

	// New shards join the merged result stream if pumping already
	// began (pump startup is otherwise lazy).
	s.pumpMu.Lock()
	if s.pumping {
		for i, m := range next.members {
			if !s.pumped[m] {
				s.pumped[m] = true
				s.pumps.Add(1)
				go s.pump(m, next.conns[i])
			}
		}
	}
	s.pumpMu.Unlock()

	// Re-broadcast the remembered policy with the new epoch AND the
	// new membership stamped, so shard-pinned workers (including those
	// on removed shards) observe the flip in their next pull response
	// and re-pin, and every shard can republish the membership to
	// standalone frontends. cfgMu is held across the broadcast so a
	// racing Configure cannot end up partially overwritten by this
	// stale policy.
	s.cfgMu.Lock()
	cfgMsg := s.lastCfg
	s.stampMembership(&cfgMsg, &next)
	_ = s.broadcast(ctx, cfgMsg)
	s.cfgMu.Unlock()

	// Migrate departing shards' queued work to the new owners, then
	// keep sweeping for stragglers in the background.
	for i, conn := range removed {
		s.drainShard(ctx, conn)
		s.pumps.Add(1)
		go s.sweepRetired(removedMembers[i], conn)
	}
	return nil
}

// stampMembership fills a configure broadcast's epoch and membership
// fields from one epoch's view: the members, their advertised dial
// addresses (empty where unknown), and the placement weight vector
// (nil when unweighted).
func (s *ShardedLB) stampMembership(req *ConfigureLBRequest, e *epochRing) {
	req.RingEpoch = e.epoch
	req.Members = append([]int(nil), e.members...)
	req.MemberWeights = append([]int(nil), e.weights...)
	req.MemberAddrs = make([]string, len(e.members))
	s.addrMu.Lock()
	for i, m := range e.members {
		req.MemberAddrs[i] = s.memberAddrs[m]
	}
	s.addrMu.Unlock()
}

// drainShard pulls everything queued on a departing shard with
// ownership transfer and re-queues it on the current (post-flip)
// ring's owners. Arrival stamps ride along, so migrated queries keep
// their SLO deadlines, and the pool rides along too: a deferral
// drained from the heavy queue re-enters its new shard's heavy queue
// instead of re-running the light model from scratch. It reports
// whether any round handed queries over.
//
// Like pump(), it
// re-queues whatever a drain round returned before inspecting the
// round's error: the departing shard has already forgotten those
// queries' registrations, so an errored-but-non-empty response (an
// in-process pull cancelled mid-call returns both) still carries
// queries that only this caller can keep alive. (A wire-level drain
// whose response is lost entirely after the server popped it remains
// unrecoverable — the same at-most-once pull semantics every worker
// pull has.)
func (s *ShardedLB) drainShard(ctx context.Context, conn LBConn) bool {
	moved := false
	for _, role := range []string{"light", "heavy"} {
		for {
			resp, err := conn.Pull(ctx, PullRequest{Role: role, Max: 512, Drain: true})
			if len(resp.Queries) > 0 {
				moved = true
				s.resubmitMigrated(resp.Queries, role)
			}
			if err != nil || len(resp.Queries) == 0 {
				break
			}
		}
	}
	return moved
}

// resubmitMigrated re-queues drained queries on their current ring
// owners, retrying failed shards until they land or the frontend
// closes: the departing shard already forgot these queries'
// registrations, so giving up would lose them outright — which is
// why the retries run under the frontend's own lifetime context, not
// the reshard caller's (an admin RPC's request context dying must
// not strand half-migrated queries).
//
// The grouping is computed ONCE, under the ring at entry, and every
// retry re-targets the same shard: a submit that errored after being
// applied server-side re-queues a duplicate, and the idempotent
// resolve machinery only collapses duplicates that live on the SAME
// shard (liveLocked state is per-LBServer). Re-grouping a retry
// under a ring that resharded mid-back-off could register the query
// on a second live shard and double-resolve it. If the targeted
// shard is itself removed while retries are in flight, the query
// still lands there (retired conns stay reachable) and that shard's
// straggler sweep migrates it onward — one registration at a time,
// always.
func (s *ShardedLB) resubmitMigrated(queries []QueryMsg, pool string) {
	ctx := s.ctx
	s.ringMu.RLock()
	cur := s.cur()
	conns := make([]LBConn, len(cur.conns))
	copy(conns, cur.conns)
	groups := make([][]QueryMsg, len(conns))
	for _, q := range queries {
		sh := cur.slot[cur.ring.Owner(q.ID)]
		groups[sh] = append(groups[sh], q)
	}
	// Migration re-tags the queries to the epoch whose ring grouped
	// them: their old shard forgot them, so their old epoch must not be
	// what keeps their new shard in the Complete fan-out.
	s.trackBatch(cur.epoch, queries)
	s.ringMu.RUnlock()
	for {
		pending := false
		for i, g := range groups {
			if len(g) == 0 {
				continue
			}
			if err := conns[i].SubmitBatch(ctx, SubmitRequest{Queries: g, Pool: pool}); err != nil {
				pending = true
				continue
			}
			groups[i] = nil
		}
		if !pending || s.ctx.Err() != nil {
			return
		}
		// Wall-clock floor, like sweepWait: at extreme timescales a
		// trace-seconds back-off rounds to nothing and a dead shard
		// would be hammered in a busy loop.
		t := time.NewTimer(s.sweepWait(0.05))
		select {
		case <-s.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// sweepRetired periodically re-drains a removed shard: a worker that
// pulled before the flip can still push a deferral into the retired
// shard's heavy queue after the migration drain ran, and without a
// re-pinned worker pulling there that query would strand forever.
// Empty sweeps back off exponentially, but only up to 8x the base
// interval (2 trace-seconds): besides pre-flip worker stragglers, the
// sweep is the re-route path for any OTHER frontend that has not yet
// adopted the new membership (see SyncMembership) — its misdirected
// queries must reach their real owner with latency budget left under
// typical SLOs.
//
// The sweep does not run forever. Once every epoch that knew the
// member has collapsed (so no frontend-tracked query can live there)
// and retiredEmptySweeps consecutive drains came back empty (the
// grace window for stale foreign frontends), the member finalizes:
// its counters fold into the Stats baseline and the sweeper — and the
// member's result pump — terminate.
func (s *ShardedLB) sweepRetired(member int, conn LBConn) {
	defer s.pumps.Done()
	interval := retiredSweepInterval
	empty := 0
	t := time.NewTimer(s.sweepWait(interval))
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			if s.drainShard(s.ctx, conn) {
				interval = retiredSweepInterval
				empty = 0
			} else {
				if s.memberQuiesced(member) {
					empty++
					if empty >= retiredEmptySweeps && s.finalizeRetired(member, conn) {
						return
					}
				} else {
					empty = 0
				}
				if interval < 8*retiredSweepInterval {
					interval *= 2
				}
			}
			t.Reset(s.sweepWait(interval))
		}
	}
}

// memberQuiesced reports whether no installed epoch knows the member:
// every epoch that routed to it has collapsed, so no query the
// frontend tracks can be registered there. Quiescence is monotonic —
// member IDs are never reused, so a collapsed epoch naming the member
// can never be reinstalled.
func (s *ShardedLB) memberQuiesced(member int) bool {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	for i := range s.epochs {
		if _, ok := s.epochs[i].slot[member]; ok {
			return false
		}
	}
	return true
}

// finalizeRetired retires a member for good: its last Stats snapshot
// folds into the merged-Stats baseline (cumulative counters stay
// visible forever; the destructively-read tick counters carry into
// the next merge), the conn leaves the retired set and the Pull
// sweep, and the member's pump is told to exit. A failed final poll
// postpones finalization to the next sweep round. Holding statsMu
// across poll+fold keeps the snapshot from interleaving with a
// concurrent merge's poll of the same conn, which would double-count.
func (s *ShardedLB) finalizeRetired(member int, conn LBConn) bool {
	s.statsMu.Lock()
	st, err := conn.Stats(s.ctx)
	if err != nil {
		s.statsMu.Unlock()
		return false
	}
	s.retiredBase.Completed += st.Completed
	s.retiredBase.Dropped += st.Dropped
	s.retiredBase.Reclaims += st.Reclaims
	s.retiredBase.ShedRedelivery += st.ShedRedelivery
	s.retiredBase.LateCompletions += st.LateCompletions
	s.carryArrivals += st.ArrivalsSinceTick
	s.carryTimeouts += st.TimeoutsSinceTick
	s.statsMu.Unlock()

	s.ringMu.Lock()
	delete(s.retired, member)
	s.rebuildSweepLocked()
	s.ringMu.Unlock()

	s.pumpMu.Lock()
	s.finished[member] = true
	s.pumpMu.Unlock()
	return true
}

// sweepWait converts a sweep interval to wall time with a floor, so
// extreme timescales cannot spin the sweeper.
func (s *ShardedLB) sweepWait(traceSecs float64) time.Duration {
	wait := s.cfg.Clock.WallDuration(traceSecs)
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// SetMemberAddr records the dial address advertised for a member in
// membership broadcasts, so a following frontend can dial members it
// has never seen. DialShardedLB records the boot addresses; the
// harness and admin paths record provisioned shards' addresses.
func (s *ShardedLB) SetMemberAddr(member int, addr string) {
	s.addrMu.Lock()
	s.memberAddrs[member] = addr
	s.addrMu.Unlock()
}

// Membership reports the frontend's own current view: the ring epoch,
// the sorted members, their advertised dial addresses (empty where
// unknown), and the placement weight vector (nil when unweighted).
// Standalone shards answer the same verb with the last view their
// authority broadcast (see LBServer.Membership).
func (s *ShardedLB) Membership(ctx context.Context) (MembershipResponse, error) {
	s.ringMu.RLock()
	cur := s.cur()
	s.ringMu.RUnlock()
	resp := MembershipResponse{
		RingEpoch: cur.epoch,
		Members:   append([]int(nil), cur.members...),
		Weights:   append([]int(nil), cur.weights...),
		Addrs:     make([]string, len(cur.members)),
	}
	s.addrMu.Lock()
	for i, m := range cur.members {
		resp.Addrs[i] = s.memberAddrs[m]
	}
	s.addrMu.Unlock()
	return resp, ctx.Err()
}

// SyncMembership adopts a newer membership from src (any conn that
// serves the Membership verb — typically one of this frontend's own
// shard conns, which republish the authority's broadcasts). dial
// opens a connection to a member this frontend has never seen, from
// its advertised address. It returns whether a flip was adopted; an
// already-current epoch is a cheap no-op, which is why callers poll
// it only when the epoch stamped on a pull or configure moves.
//
// The adopted epoch keeps the authority's number and weight vector,
// so both sides compute identical placement and later syncs compare
// epochs meaningfully.
func (s *ShardedLB) SyncMembership(ctx context.Context, src MembershipSource, dial func(member int, addr string) (LBConn, error)) (bool, error) {
	m, err := src.Membership(ctx)
	if err != nil {
		return false, err
	}
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	if m.RingEpoch <= s.Epoch() {
		return false, nil
	}
	newConns := map[int]LBConn{}
	var weights map[int]int
	for i, mem := range m.Members {
		addr := ""
		if i < len(m.Addrs) {
			addr = m.Addrs[i]
		}
		if addr != "" {
			s.SetMemberAddr(mem, addr)
		}
		if i < len(m.Weights) {
			if weights == nil {
				weights = make(map[int]int, len(m.Members))
			}
			weights[mem] = m.Weights[i]
		}
		if s.MemberConn(mem) == nil {
			if dial == nil {
				return false, fmt.Errorf("cluster: membership epoch %d adds member %d but no dialer was given", m.RingEpoch, mem)
			}
			if addr == "" {
				return false, fmt.Errorf("cluster: membership epoch %d adds member %d with no advertised address", m.RingEpoch, mem)
			}
			conn, err := dial(mem, addr)
			if err != nil {
				return false, fmt.Errorf("cluster: dialing member %d at %s: %w", mem, addr, err)
			}
			newConns[mem] = conn
		}
	}
	return true, s.reshardLocked(ctx, m.Members, newConns, m.RingEpoch, weights)
}

// LiveEpochs returns the installed-epoch count — bounded by the
// quiescence collapse, and what the regression tests assert on.
func (s *ShardedLB) LiveEpochs() int {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return len(s.epochs)
}

// RetiredMembers returns the removed members still awaiting
// finalization, sorted ascending.
func (s *ShardedLB) RetiredMembers() []int {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	out := make([]int, 0, len(s.retired))
	for m := range s.retired {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// epochRings snapshots the installed epochs' rings, oldest first —
// the conformance suite uses it to check that a batch raced by a
// reshard landed consistently under exactly one epoch.
func (s *ShardedLB) epochRings() []*loadbalancer.Ring {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	out := make([]*loadbalancer.Ring, len(s.epochs))
	for i := range s.epochs {
		out[i] = s.epochs[i].ring
	}
	return out
}

// ShardedLB is a full LBConn: clients, the controller, and frontend
// workers all speak to the shard tier through it.
var _ LBConn = (*ShardedLB)(nil)
