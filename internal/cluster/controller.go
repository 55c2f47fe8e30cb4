package cluster

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"diffserve/internal/allocator"
	"diffserve/internal/controller"
	"diffserve/internal/loadbalancer"
)

// ControllerConfig parameterizes the cluster controller process.
type ControllerConfig struct {
	// Ctrl owns the allocator and demand estimation.
	Ctrl *controller.Controller
	// LB is the connection to the load balancer.
	LB LBConn
	// Workers are the control-plane connections to the workers.
	Workers []WorkerConn
	// Mode mirrors the LB's routing policy (decides whether plans set
	// a threshold or a split probability).
	Mode loadbalancer.Mode
	// Clock provides trace time.
	Clock *Clock
	// Shards is the initial LB shard count (0 or 1: single LB).
	// Worker i is pinned to shard group i mod Shards — the harness
	// and the cmd wiring both use that mapping — and role assignment
	// then stripes each plan across the shard-pinned worker groups so
	// every shard keeps at least one worker of every role the plan
	// uses: a shard whose partition of the query stream has no light
	// (or no heavy) worker would starve, which a global plan never
	// intends. Resharding updates the count at runtime via SetShards.
	Shards int
	// MaxStatsMisses is the consecutive stats-poll-failure budget:
	// after this many misses the loop stops trusting its stale plan
	// and fails over to a conservative one (threshold and split
	// forced to zero — every query served by the light pool — so a
	// blind controller cannot keep deferring load it can no longer
	// observe into the heavy pool). Zero defaults to 3.
	MaxStatsMisses int
	// Logf, when set, receives controller-loop events (stats misses,
	// the conservative failover, recovery). Nil discards them.
	Logf func(format string, args ...interface{})
	// Elastic, when set, closes the elasticity loop: the controller
	// decides frontend shard membership from the same observed load
	// that drives model scaling, growing and shrinking the sharded LB
	// tier at tick boundaries instead of waiting for an operator.
	Elastic *ElasticConfig
}

// ElasticConfig parameterizes controller-driven frontend scaling. The
// controller reuses its tick observations (arrival rate and queue
// backlog from the LBStats poll) to size the shard tier: desired =
// ceil(load / ShardCapacityQPS) clamped to [MinShards, MaxShards],
// with hysteresis bands (UpTicks consecutive over-capacity ticks to
// grow, DownTicks under-capacity ticks to shrink) so a bursty trace
// does not thrash membership. Scale-up jumps straight to the desired
// count — under-provisioning costs SLO violations — while scale-down
// retires one member per tick, because each removal migrates that
// member's queued share and slow shrinking bounds the migration burst.
type ElasticConfig struct {
	// Frontend is the sharded tier whose membership the controller
	// drives (AddShard / RemoveShard).
	Frontend *ShardedLB
	// Provision brings up a new shard member and returns its conn and
	// dial address (the address may be empty for in-process members).
	// Called once per added member; the member stays retired forever
	// after removal, so Provision never sees a reused ID.
	Provision func(ctx context.Context, member int) (LBConn, string, error)
	// MinShards and MaxShards clamp the tier size (defaults 1 and the
	// current membership size).
	MinShards, MaxShards int
	// ShardCapacityQPS is one shard's sustainable arrival rate — the
	// denominator of the sizing rule.
	ShardCapacityQPS float64
	// UpTicks and DownTicks are the hysteresis bands: consecutive
	// ticks the desired size must exceed (resp. fall below) the
	// current size before the controller acts. Zero defaults to 1 up
	// (react to overload within one control period) and 3 down
	// (shrink only on sustained slack).
	UpTicks, DownTicks int
}

// ControllerLoopStats is the control loop's own health report.
type ControllerLoopStats struct {
	// ConsecutiveStatsMisses is the current run of failed stats polls.
	ConsecutiveStatsMisses int
	// TotalStatsMisses counts failed stats polls over the loop's life.
	TotalStatsMisses int
	// Conservative reports whether the loop is currently running the
	// stats-blind fallback plan.
	Conservative bool
	// MeanSolveMs is the average allocator solve time per control
	// tick, in milliseconds — the number the warm-started MILP is
	// meant to keep flat as the shard tier grows.
	MeanSolveMs float64
	// WarmLPs and ColdLPs split the MILP solver's LP relaxations by
	// path: warm (reused basis) vs cold (fresh two-phase solve). Zero
	// for allocators without an internal solver.
	WarmLPs, ColdLPs int
}

// ControllerLoop polls runtime statistics, re-solves allocation, and
// pushes plans — the cluster analogue of the simulator's control tick.
type ControllerLoop struct {
	cfg ControllerConfig
	// mu serializes control ticks and plan applications: the periodic
	// Run loop and the resharding driver's Restripe may otherwise
	// interleave, racing the assignment cache and the controller's
	// demand estimator.
	mu       sync.Mutex
	lastTick float64
	// lastPlan caches the most recently applied plan so Restripe can
	// re-stripe it across a changed shard layout without polling stats
	// (a second poll would reset the since-tick counters and feed the
	// demand EWMA a phantom near-zero sample).
	lastPlan allocator.Plan
	hasPlan  bool
	// shards tracks the current LB shard count; resharding updates it
	// via SetShards and the next Apply re-stripes roles across the
	// new shard-pinned worker groups.
	shards atomic.Int32
	// assigned caches the last role pushed to each worker so ticks do
	// not need a per-worker stats round-trip.
	assigned []string
	// stats-poll failure tracking (guarded by mu): statsMisses is the
	// consecutive run, totalMisses the lifetime count, conservative
	// whether the blind-fallback plan is currently applied.
	statsMisses  int
	totalMisses  int
	conservative bool
	// elastic-scaling state (guarded by mu): the hysteresis streaks,
	// the next fresh member ID (member IDs are never reused — retired
	// members stay retired), and the peak tier size observed.
	upStreak   int
	downStreak int
	nextMember int
	peakShards int
}

// NewControllerLoop constructs the control loop.
func NewControllerLoop(cfg ControllerConfig) *ControllerLoop {
	if cfg.MaxStatsMisses <= 0 {
		cfg.MaxStatsMisses = 3
	}
	c := &ControllerLoop{cfg: cfg}
	c.shards.Store(int32(cfg.Shards))
	if e := cfg.Elastic; e != nil && e.Frontend != nil {
		if e.MinShards <= 0 {
			e.MinShards = 1
		}
		members := e.Frontend.Members()
		if e.MaxShards < e.MinShards {
			e.MaxShards = len(members)
			if e.MaxShards < e.MinShards {
				e.MaxShards = e.MinShards
			}
		}
		if e.UpTicks <= 0 {
			e.UpTicks = 1
		}
		if e.DownTicks <= 0 {
			e.DownTicks = 3
		}
		for _, m := range members {
			if m >= c.nextMember {
				c.nextMember = m + 1
			}
		}
		c.peakShards = len(members)
		c.shards.Store(int32(len(members)))
	}
	return c
}

func (c *ControllerLoop) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// LoopStats reports the control loop's own health (stats-poll misses
// and whether the conservative fallback is active).
func (c *ControllerLoop) LoopStats() ControllerLoopStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ControllerLoopStats{
		ConsecutiveStatsMisses: c.statsMisses,
		TotalStatsMisses:       c.totalMisses,
		Conservative:           c.conservative,
		MeanSolveMs:            c.cfg.Ctrl.MeanSolveSeconds() * 1e3,
	}
	if ss, ok := c.cfg.Ctrl.SolveStats(); ok {
		st.WarmLPs, st.ColdLPs = ss.WarmLPs, ss.ColdLPs
	}
	return st
}

// SetShards updates the shard count the role striping targets — the
// resharding path calls it when LB membership changes so worker i's
// group becomes i mod the new count, matching the re-pinned layout.
func (c *ControllerLoop) SetShards(n int) {
	if n >= 1 {
		c.shards.Store(int32(n))
	}
}

// Plans returns the plans applied so far.
func (c *ControllerLoop) Plans() []controller.PlanAt { return c.cfg.Ctrl.Plans() }

// Run executes control ticks every controller interval (trace time)
// until the context is cancelled. Each tick (stats poll + MILP solve +
// plan push) runs asynchronously with at most one in flight, so solver
// time stays off the control cadence — the paper's design: "the MILP
// is called asynchronously and its execution is in the control path".
// Run returns once ctx is cancelled and the tick in flight, if any,
// has finished.
func (c *ControllerLoop) Run(ctx context.Context) {
	var busy int32
	var tick sync.WaitGroup
	defer tick.Wait()
	for ctx.Err() == nil {
		if atomic.CompareAndSwapInt32(&busy, 0, 1) {
			tick.Add(1)
			go func() {
				defer tick.Done()
				defer atomic.StoreInt32(&busy, 0)
				c.TickOnce(ctx)
			}()
		}
		if !c.cfg.Clock.SleepTraceCtx(ctx, c.cfg.Ctrl.Interval()) {
			return
		}
	}
}

// TickOnce performs one control period: poll stats, solve, push.
//
// A failed stats poll is tolerated for MaxStatsMisses consecutive
// ticks — a transient wire fault should not perturb the plan — but
// not forever: past the budget the loop fails over to a conservative
// plan instead of steering the cluster with observations that may be
// arbitrarily stale. The first successful poll afterwards resumes
// normal planning.
func (c *ControllerLoop) TickOnce(ctx context.Context) {
	lbStats, err := c.cfg.LB.Stats(ctx)
	if err != nil {
		c.mu.Lock()
		c.statsMisses++
		c.totalMisses++
		misses := c.statsMisses
		failover := misses >= c.cfg.MaxStatsMisses && !c.conservative && c.hasPlan
		if failover {
			c.conservative = true
			plan := c.conservativePlanLocked()
			c.logf("controller: %d consecutive stats-poll failures (%v): failing over to conservative plan", misses, err)
			c.applyLocked(ctx, plan)
		}
		c.mu.Unlock()
		if !failover {
			c.logf("controller: stats poll failed (%d consecutive): keeping previous plan: %v", misses, err)
		}
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.statsMisses > 0 {
		c.logf("controller: stats poll recovered after %d misses", c.statsMisses)
		c.statsMisses = 0
	}
	c.conservative = false
	elapsed := lbStats.Now - c.lastTick
	c.lastTick = lbStats.Now
	plan, err := c.cfg.Ctrl.Tick(lbStats.Now, controller.TickInput{
		Arrivals:         lbStats.ArrivalsSinceTick,
		ElapsedSeconds:   elapsed,
		LightQueueLen:    lbStats.LightQueueLen,
		HeavyQueueLen:    lbStats.HeavyQueueLen,
		LightArrivalRate: lbStats.LightArrivalRate,
		HeavyArrivalRate: lbStats.HeavyArrivalRate,
		SLOTimeouts:      lbStats.TimeoutsSinceTick,
	})
	if err != nil {
		return
	}
	c.applyLocked(ctx, plan)
	c.elasticLocked(ctx, lbStats, elapsed)
}

// PeakShards reports the largest frontend tier size the elastic loop
// has observed (the initial size when scaling never triggered).
func (c *ControllerLoop) PeakShards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peakShards
}

// elasticLocked runs one elastic-sizing decision from the tick's
// stats sample. Callers hold mu (the tick lock), which serializes the
// hysteresis state and the membership changes against Restripe.
func (c *ControllerLoop) elasticLocked(ctx context.Context, st LBStats, elapsed float64) {
	e := c.cfg.Elastic
	if e == nil || e.Frontend == nil || e.ShardCapacityQPS <= 0 {
		return
	}
	members := e.Frontend.Members()
	cur := len(members)
	if cur > c.peakShards {
		c.peakShards = cur
	}
	if elapsed <= 0 {
		return
	}
	// Observed load: this tick's arrival rate plus the standing
	// backlog amortized over one control period — a tier that keeps up
	// with arrivals but cannot drain its queue is still undersized.
	load := float64(st.ArrivalsSinceTick)/elapsed +
		float64(st.LightQueueLen+st.HeavyQueueLen)/elapsed
	desired := int(math.Ceil(load / e.ShardCapacityQPS))
	if desired < e.MinShards {
		desired = e.MinShards
	}
	if desired > e.MaxShards {
		desired = e.MaxShards
	}
	switch {
	case desired > cur:
		c.upStreak++
		c.downStreak = 0
	case desired < cur:
		c.downStreak++
		c.upStreak = 0
	default:
		c.upStreak, c.downStreak = 0, 0
		return
	}
	changed := false
	if desired > cur && c.upStreak >= e.UpTicks && e.Provision != nil {
		// Scale up straight to the desired size: under-provisioning
		// costs SLO violations, and each member added later would pay
		// its own migration anyway.
		for len(members) < desired {
			id := c.nextMember
			conn, addr, err := e.Provision(ctx, id)
			if err != nil {
				c.logf("controller: provisioning shard member %d failed: %v", id, err)
				break
			}
			c.nextMember++
			if addr != "" {
				e.Frontend.SetMemberAddr(id, addr)
			}
			if err := e.Frontend.AddShard(ctx, id, conn); err != nil {
				c.logf("controller: adding shard member %d failed: %v", id, err)
				break
			}
			members = append(members, id)
			changed = true
			c.logf("controller: scaled frontend up to %d shards (member %d added, load %.1f qps)", len(members), id, load)
		}
		c.upStreak = 0
	} else if desired < cur && c.downStreak >= e.DownTicks {
		if st.DegradedShards > 0 {
			// A degraded member is already shedding its share onto the
			// survivors; shrinking now would compound the overload.
			c.downStreak = 0
			return
		}
		// Scale down one member per tick — each removal migrates the
		// departing member's queued share, and shrinking slowly bounds
		// that burst. Retire the highest ID (the youngest member, so
		// long-lived members keep their key shares stable).
		hi := members[0]
		for _, m := range members {
			if m > hi {
				hi = m
			}
		}
		if err := e.Frontend.RemoveShard(ctx, hi); err != nil {
			c.logf("controller: removing shard member %d failed: %v", hi, err)
		} else {
			changed = true
			c.logf("controller: scaled frontend down to %d shards (member %d retired, load %.1f qps)", cur-1, hi, load)
		}
		c.downStreak = 0
	}
	if changed {
		n := e.Frontend.Shards()
		if n > c.peakShards {
			c.peakShards = n
		}
		c.shards.Store(int32(n))
		// Re-stripe the cached plan across the new shard-pinned worker
		// groups immediately — a membership change that waited out the
		// control interval would leave some shard without a role.
		if c.hasPlan {
			c.applyLocked(ctx, c.lastPlan)
		}
	}
}

// conservativePlanLocked derives the stats-blind fallback from the
// last applied plan: the worker layout is kept (reassigning roles
// blind would only thrash model reloads) but the cascade threshold
// and the random split are forced to zero, so every new query is
// served by the light pool. Deferral volume is the one knob the
// controller actively steers with stats it no longer has — freezing
// it at zero bounds heavy-pool load instead of trusting a stale
// estimate of it. Callers hold mu.
func (c *ControllerLoop) conservativePlanLocked() allocator.Plan {
	plan := c.lastPlan
	plan.Threshold = 0
	plan.DeferFraction = 0
	return plan
}

// Restripe re-applies the last plan across the current shard layout —
// the resharding path's way to give a membership change workers
// immediately without waiting out the control interval. Unlike a full
// tick it does not poll stats, so the since-tick counters and the
// demand estimate are left untouched.
func (c *ControllerLoop) Restripe(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasPlan {
		c.applyLocked(ctx, c.lastPlan)
	}
}

// Apply pushes a plan to the LB and workers. Worker role assignment
// prefers keeping existing roles to minimize model reloads.
func (c *ControllerLoop) Apply(ctx context.Context, plan allocator.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.applyLocked(ctx, plan)
}

// applyLocked is Apply's core. Callers hold mu.
func (c *ControllerLoop) applyLocked(ctx context.Context, plan allocator.Plan) {
	c.lastPlan, c.hasPlan = plan, true
	// Configure the LB policy first so new completions observe the
	// fresh threshold.
	split := 0.0
	if c.cfg.Mode == loadbalancer.ModeRandomSplit {
		split = plan.DeferFraction
	}
	_ = c.cfg.LB.Configure(ctx, ConfigureLBRequest{
		Threshold: plan.Threshold,
		SplitProb: split,
	})

	// Current roles come from the assignment cache (the controller is
	// the only writer of worker roles, so the cache is authoritative
	// and avoids a per-worker stats round-trip each tick).
	if len(c.assigned) != len(c.cfg.Workers) {
		c.assigned = make([]string, len(c.cfg.Workers))
		for i := range c.assigned {
			c.assigned[i] = "idle"
		}
	}

	needLight, needHeavy := plan.LightWorkers, plan.HeavyWorkers
	if needLight+needHeavy > len(c.assigned) {
		needHeavy = len(c.assigned) - needLight
		if needHeavy < 0 {
			needLight, needHeavy = len(c.assigned), 0
		}
	}

	var next []string
	if shards := int(c.shards.Load()); shards > 1 {
		// Sharded LB tier: stripe the plan across the shard-pinned
		// worker groups (worker i serves shard i mod shards) so each
		// shard's partition of the query stream keeps both roles.
		groups := make([][]int, shards)
		for i := range c.assigned {
			s := i % shards
			groups[s] = append(groups[s], i)
		}
		sizes := make([]int, shards)
		for s, g := range groups {
			sizes[s] = len(g)
		}
		lightQ, heavyQ := shardQuotas(needLight, needHeavy, sizes)
		next = make([]string, len(c.assigned))
		for s, g := range groups {
			cur := make([]string, len(g))
			for j, i := range g {
				cur[j] = c.assigned[i]
			}
			sub := assignRoles(cur, lightQ[s], heavyQ[s])
			for j, i := range g {
				next[i] = sub[j]
			}
		}
	} else {
		next = assignRoles(c.assigned, needLight, needHeavy)
	}
	for i, conn := range c.cfg.Workers {
		batch := plan.LightBatch
		if next[i] == "heavy" {
			batch = plan.HeavyBatch
		}
		_ = conn.Configure(ctx, ConfigureWorkerRequest{
			Role: next[i], Batch: batch,
		})
	}
	c.assigned = next
}

// assignRoles computes the next role assignment for one worker group,
// keeping matching existing roles in place to minimize model reloads.
func assignRoles(current []string, needLight, needHeavy int) []string {
	next := make([]string, len(current))
	light, heavy := 0, 0
	for i, role := range current {
		switch {
		case role == "light" && light < needLight:
			next[i] = "light"
			light++
		case role == "heavy" && heavy < needHeavy:
			next[i] = "heavy"
			heavy++
		}
	}
	for i := range next {
		if next[i] != "" {
			continue
		}
		switch {
		case light < needLight:
			next[i] = "light"
			light++
		case heavy < needHeavy:
			next[i] = "heavy"
			heavy++
		default:
			next[i] = "idle"
		}
	}
	return next
}

// shardQuotas splits a global role plan across shard-pinned worker
// groups. Each role is divided proportionally to group size (largest
// remainder, ties to the lower shard for determinism), group capacity
// overflows are repaired by moving the excess to shards with spare
// workers, and finally every shard is guaranteed at least one worker
// of each role the plan uses at all — stealing from the shard's other
// role when it has workers to spare — because a shard-pinned
// partition with zero light (or zero heavy) workers starves its share
// of the query stream. The per-shard totals may therefore deviate
// from the plan by a worker or two near the minimum; the aggregate
// never exceeds the group capacities.
func shardQuotas(needLight, needHeavy int, sizes []int) (light, heavy []int) {
	n := len(sizes)
	total := 0
	for _, s := range sizes {
		total += s
	}
	split := func(need int) []int {
		q := make([]int, n)
		if total == 0 || need <= 0 {
			return q
		}
		rem := make([]float64, n)
		given := 0
		for i, s := range sizes {
			exact := float64(need) * float64(s) / float64(total)
			q[i] = int(exact)
			rem[i] = exact - float64(q[i])
			given += q[i]
		}
		for given < need {
			best := -1
			for i := 0; i < n; i++ {
				if q[i] >= sizes[i] {
					continue
				}
				if best < 0 || rem[i] > rem[best] {
					best = i
				}
			}
			if best < 0 {
				break
			}
			q[best]++
			rem[best] = -1
			given++
		}
		return q
	}
	light, heavy = split(needLight), split(needHeavy)

	// Capacity repair: the two roles were split independently, so a
	// group's quotas can sum past its size. Move the excess unit of
	// the group's larger role to the first shard with spare room (or
	// drop it — only reachable when the plan exceeds total capacity,
	// which Apply already clamps away).
	for i := 0; i < n; i++ {
		for light[i]+heavy[i] > sizes[i] {
			role := light
			if heavy[i] > light[i] {
				role = heavy
			}
			role[i]--
			for j := 0; j < n; j++ {
				if light[j]+heavy[j] < sizes[j] {
					role[j]++
					break
				}
			}
		}
	}

	// Starvation guard: every shard the plan can cover gets at least
	// one worker of each role in use. The unit comes from the richest
	// shard of that role when one has more than a single worker
	// (preserving the plan's totals); otherwise the role grows by one
	// at the expense of the shard's other role, because a starved
	// partition is strictly worse than a plan deviated by one worker.
	ensure := func(role, other []int, need int) {
		for i := 0; i < n; i++ {
			if need <= 0 || role[i] > 0 || sizes[i] == 0 {
				continue
			}
			freedOther := false
			if role[i]+other[i] >= sizes[i] {
				if other[i] > 1 {
					other[i]--
					freedOther = true
				} else {
					continue // one-worker group: the other role keeps it
				}
			}
			donor := -1
			for j := 0; j < n; j++ {
				if role[j] > 1 && (donor < 0 || role[j] > role[donor]) {
					donor = j
				}
			}
			if donor >= 0 {
				role[donor]--
			}
			role[i]++
			if freedOther {
				// The unit stolen from the shard's other role still
				// belongs to the plan: re-grant it to a shard with
				// spare capacity rather than silently idling a worker.
				for j := 0; j < n; j++ {
					if light[j]+heavy[j] < sizes[j] {
						other[j]++
						break
					}
				}
			}
		}
	}
	ensure(light, heavy, needLight)
	ensure(heavy, light, needHeavy)
	return light, heavy
}
