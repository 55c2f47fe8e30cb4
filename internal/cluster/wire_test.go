package cluster

import (
	"context"
	"testing"
	"time"
)

// TestSleepTraceCtxNeverEndsEarly interleaves sleeps cancelled just
// before their deadline with full sleeps on the same pooled timers.
// A cancelled sleep's timer often fires between the wakeup and its
// Stop; a tick left in a recycled timer's channel would end a later
// sleep early and report it full.
func TestSleepTraceCtxNeverEndsEarly(t *testing.T) {
	const (
		rounds = 500
		sleep  = 100 * time.Microsecond
	)
	clock := NewClock(1)
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(live)
		deadline := time.Now().Add(sleep)
		early := time.Duration(i%40) * time.Microsecond
		cancelled := make(chan struct{})
		go func() {
			defer close(cancelled)
			// Spin rather than sleep: a sleeping canceller wakes too
			// late to beat the timer.
			for time.Until(deadline) > early {
			}
			cancel()
		}()
		clock.SleepTraceCtx(ctx, sleep.Seconds())
		<-cancelled
		start := time.Now()
		if clock.SleepTraceCtx(live, sleep.Seconds()) {
			if got := time.Since(start); got < sleep {
				t.Fatalf("round %d: sleep of %v reported full after %v", i, sleep, got)
			}
		}
	}
}
