package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"diffserve/internal/loadbalancer"
)

// BenchmarkShardedSubmit measures aggregate submit throughput of the
// LB tier under concurrent batch submitters, with per-shard workers
// draining the queues and a merged-result poller keeping the result
// buffers bounded — the full admission pipeline. One op is one
// 64-query SubmitBatch through the frontend. shards=1 is the classic
// single LBServer (its result lock and pool lock serialize every
// submitter); higher shard counts split the stream by ID hash across
// independent locks. PERFORMANCE.md records the measured scaling.
func BenchmarkShardedSubmit(b *testing.B) {
	const batchSize = 64
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			clock := NewClock(1e-6)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			lbs := make([]*LBServer, shards)
			conns := make([]LBConn, shards)
			for i := range lbs {
				lbs[i] = NewLBServer(LBConfig{
					Mode: loadbalancer.ModeCascade, SLO: 1e9,
					LightMinExec: 0.01, HeavyMinExec: 0.02,
					Clock: clock, Seed: 1, RNGStream: fmt.Sprintf("lb/%d", i),
					CoalesceWait: 1e-9,
				})
				conns[i] = NewLocalLBConn(lbs[i])
			}
			fe, err := NewShardedLB(ShardedLBConfig{Shards: conns, Clock: clock})
			if err != nil {
				b.Fatal(err)
			}
			defer fe.Close()

			// Shard-pinned workers drain and complete; the merged
			// poller discards results so buffers stay bounded.
			for _, conn := range conns {
				for w := 0; w < 2; w++ {
					go func(conn LBConn) {
						for ctx.Err() == nil {
							resp, err := conn.Pull(ctx, PullRequest{Role: "light", Max: 256, Wait: 1e6})
							if err != nil || len(resp.Queries) == 0 {
								continue
							}
							items := make([]CompleteItem, len(resp.Queries))
							for i, q := range resp.Queries {
								items[i] = CompleteItem{ID: q.ID, Arrival: q.Arrival, Variant: "light", Confidence: 0.9}
							}
							_ = conn.Complete(ctx, CompleteRequest{Role: "light", Items: items})
						}
					}(conn)
				}
			}
			go func() {
				for ctx.Err() == nil {
					_, _ = fe.PollResults(ctx, ResultsRequest{Max: 4096, Wait: 1e6})
				}
			}()

			var idc atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				batch := make([]QueryMsg, batchSize)
				for pb.Next() {
					base := int(idc.Add(batchSize)) - batchSize
					for i := range batch {
						batch[i] = QueryMsg{ID: base + i}
					}
					if err := fe.SubmitBatch(ctx, SubmitRequest{Queries: batch}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			qps := float64(b.N) * batchSize / b.Elapsed().Seconds()
			b.ReportMetric(qps/1e6, "Mqueries/s")
		})
	}
}
