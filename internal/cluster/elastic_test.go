package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
	"diffserve/internal/trace"
)

// waitUntil polls cond every few milliseconds until it holds or the
// deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newLocalShard builds one LB shard on the chaos-test configuration:
// huge SLO (nothing sheds), near-zero coalesce wait, per-member RNG
// stream.
func newLocalShard(clock *Clock, member int) (*LBServer, LBConn) {
	lb := NewLBServer(LBConfig{
		Mode: loadbalancer.ModeCascade, SLO: 1e9,
		LightMinExec: 0.1, HeavyMinExec: 1.78,
		Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", member),
		CoalesceWait: 1e-9,
	})
	return lb, NewLocalLBConn(lb)
}

// TestManyReshardsCollapseEpochs is the quiescence regression: 50
// membership changes, each with live traffic, must not accumulate 50
// ring epochs. Once every query resolves, the drained epochs collapse
// and at most the newest plus one straggler remain installed.
func TestManyReshardsCollapseEpochs(t *testing.T) {
	const (
		rounds    = 25 // add + remove per round = 50 reshards
		batchSize = 8
	)
	clock := NewClock(1e-5)
	ctx := context.Background()
	_, conn0 := newLocalShard(clock, 0)
	_, conn1 := newLocalShard(clock, 1)
	fe, err := NewShardedLB(ShardedLBConfig{
		Shards: []LBConn{conn0, conn1}, Clock: clock, VNodes: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if err := fe.Configure(ctx, ConfigureLBRequest{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}

	seen := map[int]int{}
	nextID := 0
	for round := 0; round < rounds; round++ {
		member := 2 + round
		_, conn := newLocalShard(clock, member)
		if err := fe.AddShard(ctx, member, conn); err != nil {
			t.Fatalf("round %d: add %d: %v", round, member, err)
		}
		// One batch rides each membership: submitted into the new
		// epoch, executed, and resolved before the member retires.
		qs := make([]QueryMsg, batchSize)
		for i := range qs {
			qs[i] = QueryMsg{ID: nextID}
			nextID++
		}
		if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: qs}); err != nil {
			t.Fatalf("round %d: submit: %v", round, err)
		}
		resolved := 0
		deadline := time.Now().Add(20 * time.Second)
		for resolved < batchSize {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: drained %d of %d queries", round, resolved, batchSize)
			}
			if resp, err := fe.Pull(ctx, PullRequest{Role: "light", Max: batchSize, Wait: 5}); err == nil && len(resp.Queries) > 0 {
				items := make([]CompleteItem, len(resp.Queries))
				for i, q := range resp.Queries {
					items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "light", Confidence: 0.95}
				}
				if err := fe.Complete(ctx, CompleteRequest{Role: "light", Items: items}); err != nil {
					t.Fatalf("round %d: complete: %v", round, err)
				}
			}
			rr, err := fe.PollResults(ctx, ResultsRequest{Max: batchSize, Wait: 5})
			if err != nil {
				t.Fatalf("round %d: poll: %v", round, err)
			}
			for _, r := range rr.Results {
				seen[r.ID]++
				resolved++
			}
		}
		if err := fe.RemoveShard(ctx, member); err != nil {
			t.Fatalf("round %d: remove %d: %v", round, member, err)
		}
	}

	if got, want := fe.Epoch(), 2*rounds; got != want {
		t.Errorf("final epoch = %d, want %d", got, want)
	}
	if len(seen) != rounds*batchSize {
		t.Errorf("resolved %d distinct queries, want %d", len(seen), rounds*batchSize)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("query %d resolved %d times", id, n)
		}
	}
	waitUntil(t, 30*time.Second, "retired members to finalize", func() bool {
		return len(fe.RetiredMembers()) == 0
	})
	if live := fe.LiveEpochs(); live > 2 {
		t.Errorf("%d reshards left %d live epochs, want <= 2", 2*rounds, live)
	}
}

// TestRetiredPumpsTerminate checks that a retired member's result pump
// and straggler sweep both exit once the member quiesces, instead of
// long-polling a dead shard forever. Asserted by goroutine count so a
// regression shows up under -race as well.
func TestRetiredPumpsTerminate(t *testing.T) {
	clock := NewClock(1e-5)
	ctx := context.Background()
	_, conn0 := newLocalShard(clock, 0)
	_, conn1 := newLocalShard(clock, 1)
	fe, err := NewShardedLB(ShardedLBConfig{
		Shards: []LBConn{conn0, conn1}, Clock: clock, VNodes: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if err := fe.Configure(ctx, ConfigureLBRequest{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Pump startup is lazy: one results poll ignites it, so members
	// added later get a pump goroutine each.
	if _, err := fe.PollResults(ctx, ResultsRequest{Max: 1, Wait: 0.01}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the two boot pumps settle
	base := runtime.NumGoroutine()

	const extra = 6
	for m := 2; m < 2+extra; m++ {
		_, conn := newLocalShard(clock, m)
		if err := fe.AddShard(ctx, m, conn); err != nil {
			t.Fatalf("add %d: %v", m, err)
		}
	}
	if g := runtime.NumGoroutine(); g < base+extra {
		t.Errorf("after adds: %d goroutines (base %d), want at least one pump per added member", g, base)
	}
	for m := 2; m < 2+extra; m++ {
		if err := fe.RemoveShard(ctx, m); err != nil {
			t.Fatalf("remove %d: %v", m, err)
		}
	}
	waitUntil(t, 30*time.Second, "retired members to finalize", func() bool {
		return len(fe.RetiredMembers()) == 0
	})
	// Every retired pump and sweep must exit; allow a little slack for
	// unrelated runtime goroutines.
	waitUntil(t, 30*time.Second, "retired pumps and sweeps to exit", func() bool {
		return runtime.NumGoroutine() <= base+2
	})
}

// TestMembershipEndpointHTTP round-trips the membership snapshot
// through a standalone LBServer over HTTP: the server adopts the view
// a Configure broadcast carries and republishes it on /membership.
func TestMembershipEndpointHTTP(t *testing.T) {
	clock := NewClock(1e-5)
	lb, _ := newLocalShard(clock, 0)
	srv := httptest.NewServer(lb.Mux())
	defer srv.Close()
	conn := NewHTTPLBConn(http.DefaultClient, srv.URL, CodecJSON)
	ctx := context.Background()

	m, ok, err := MembershipFromConn(ctx, conn)
	if err != nil || !ok {
		t.Fatalf("membership: ok=%v err=%v", ok, err)
	}
	if m.RingEpoch != 0 || len(m.Members) != 0 {
		t.Fatalf("fresh server membership = %+v, want empty epoch 0", m)
	}

	if err := conn.Configure(ctx, ConfigureLBRequest{
		Threshold: 0.5, RingEpoch: 3,
		Members:       []int{0, 2, 5},
		MemberAddrs:   []string{"", ":8102", ":8105"},
		MemberWeights: []int{3, 2, 2},
	}); err != nil {
		t.Fatal(err)
	}
	m, _, err = MembershipFromConn(ctx, conn)
	if err != nil {
		t.Fatal(err)
	}
	if m.RingEpoch != 3 {
		t.Errorf("adopted epoch = %d, want 3", m.RingEpoch)
	}
	if fmt.Sprint(m.Members) != "[0 2 5]" || fmt.Sprint(m.Weights) != "[3 2 2]" {
		t.Errorf("adopted members/weights = %v/%v", m.Members, m.Weights)
	}
	if len(m.Addrs) != 3 || m.Addrs[1] != ":8102" {
		t.Errorf("adopted addrs = %v", m.Addrs)
	}
	// A stale broadcast (older epoch) must not regress the snapshot.
	if err := conn.Configure(ctx, ConfigureLBRequest{
		Threshold: 0.5, RingEpoch: 2, Members: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	if m, _, _ = MembershipFromConn(ctx, conn); m.RingEpoch != 3 || len(m.Members) != 3 {
		t.Errorf("stale broadcast regressed membership to %+v", m)
	}
}

// TestMembershipFollowerSyncsOverTCP runs an authority frontend and a
// follower frontend against the same TCP shard servers. When the
// authority adds a member, the shards republish the broadcast view and
// the follower adopts it through SyncMembership, dialing the new
// member from its advertised address.
func TestMembershipFollowerSyncsOverTCP(t *testing.T) {
	clock := NewClock(1e-5)
	ctx := context.Background()
	serveTCP := func(member int) (addr string, authConn LBConn) {
		lb, _ := newLocalShard(clock, member)
		srv, err := ServeLBTCP("127.0.0.1:0", lb)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv.Addr(), NewTCPLBConn(srv.Addr())
	}
	addr0, auth0 := serveTCP(0)
	addr1, auth1 := serveTCP(1)

	authority, err := NewShardedLB(ShardedLBConfig{
		Shards: []LBConn{auth0, auth1}, Clock: clock, VNodes: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer authority.Close()
	authority.SetMemberAddr(0, addr0)
	authority.SetMemberAddr(1, addr1)

	follower, err := NewShardedLB(ShardedLBConfig{
		Shards: []LBConn{NewTCPLBConn(addr0), NewTCPLBConn(addr1)},
		Clock:  clock, VNodes: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	addr2, authConn2 := serveTCP(2)
	authority.SetMemberAddr(2, addr2)
	if err := authority.AddShard(ctx, 2, authConn2); err != nil {
		t.Fatal(err)
	}

	src, ok := follower.MemberConn(0).(MembershipSource)
	if !ok {
		t.Fatal("tcp conn does not serve the membership verb")
	}
	dial := func(member int, addr string) (LBConn, error) {
		return NewTCPLBConn(addr), nil
	}
	flipped, err := follower.SyncMembership(ctx, src, dial)
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Fatal("follower did not adopt the new membership")
	}
	am, _ := authority.Membership(ctx)
	fm, _ := follower.Membership(ctx)
	if am.RingEpoch != fm.RingEpoch || fmt.Sprint(am.Members) != fmt.Sprint(fm.Members) ||
		fmt.Sprint(am.Weights) != fmt.Sprint(fm.Weights) {
		t.Errorf("follower view %+v != authority view %+v", fm, am)
	}
	if follower.MemberConn(2) == nil {
		t.Error("follower did not dial the added member")
	}
	// Re-sync at the same epoch is a cheap no-op.
	if flipped, err = follower.SyncMembership(ctx, src, dial); err != nil || flipped {
		t.Errorf("idempotent sync: flipped=%v err=%v", flipped, err)
	}
}

// TestHarnessAutoscaleTopology is the elasticity soak: no scheduled
// reshard events — the controller alone, watching arrival rate and
// queue depth, must grow the frontend 1 -> 4 under the burst and
// shrink it back once the burst passes, losing nothing.
func TestHarnessAutoscaleTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscale harness skipped in -short mode")
	}
	f := newFixtures(t)
	// 2 qps base, a 10 qps burst, then a long cool-down tail.
	rates := []float64{2, 2, 10, 10, 10, 10, 10, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	tr, err := trace.Steps(rates, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(HarnessConfig{
		Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
		Mode: loadbalancer.ModeCascade, Workers: 12, SLO: 8,
		Trace: tr, Ctrl: f.controller(t, 12, 8),
		Timescale: 0.05, Seed: 808808, DisableLoadDelay: true,
		Transport: TransportTCP, LBShards: 1, RingVNodes: 128,
		Steal: true,
		Autoscale: &AutoscaleConfig{
			MinShards: 1, MaxShards: 4,
			ShardCapacityQPS: 2.5,
			UpTicks:          1, DownTicks: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LBShards != 1 {
		t.Errorf("run started with %d shards, want 1", res.LBShards)
	}
	if res.PeakLBShards != 4 {
		t.Errorf("peak tier size = %d, want 4 (controller never scaled to the burst)", res.PeakLBShards)
	}
	if res.FinalLBShards > 2 {
		t.Errorf("final tier size = %d, want <= 2 after the cool-down", res.FinalLBShards)
	}
	if res.LiveEpochs > 2 {
		t.Errorf("%d live epochs at rest, want <= 2", res.LiveEpochs)
	}
	if res.Collector.Len() != res.Queries {
		t.Errorf("recorded %d of %d queries", res.Collector.Len(), res.Queries)
	}
	sum := res.Summary()
	if sum.DropRatio != 0 {
		t.Errorf("autoscale run dropped %.3f of queries", sum.DropRatio)
	}
	ids := map[int]bool{}
	for _, r := range res.Collector.Records() {
		if ids[r.ID] {
			t.Errorf("query %d recorded twice", r.ID)
		}
		ids[r.ID] = true
	}
	t.Logf("autoscale harness: %d queries, peak %d shards, final %d, %d live epochs, wall=%.1fs",
		sum.Queries, res.PeakLBShards, res.FinalLBShards, res.LiveEpochs, res.WallSeconds)
}
