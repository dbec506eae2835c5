//go:build !race

package engine_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// TestCheckpointAllocationOnGrowingStream pins what a stream that keeps
// growing costs in checkpoint buffers. flowtime sessions, sized by the
// stream's hint as a server's -size-hint sizes them, are checkpointed
// through a delta lineage after each of 12 increments. Every buffer that
// holds a whole checkpoint is allocated once, at the hinted size: the
// capture buffer, the lineage's base and its self-check buffer, and for a
// fleet the fleet buffer the shard frames the sessions' captures into. So
// capture plus Lineage.Write allocate at most one final payload per such
// buffer, plus one for the deltas and the hint's slack: 4× for a session,
// 5× for a fleet. Buffers regrown at each capture or each delta write cost
// several times more.
func TestCheckpointAllocationOnGrowingStream(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		limit  float64
	}{{"session", 0, 4}, {"fleet", 2, 5}} {
		t.Run(tc.name, func(t *testing.T) {
			const m, n, increments = 8, 24000, 12
			entry, _ := policy.Lookup("flowtime")
			sessions := make([]engine.Feeder, max(tc.shards, 1))
			for k := range sessions {
				s, err := entry.New(m, policy.Params{Epsilon: 0.2, SizeHint: engine.PerShardHint(n, len(sessions))})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				sessions[k] = s
			}
			// feed hands the fleet or the session an increment and returns
			// once it is decided; capture appends the checkpoint to dst.
			feed := sessions[0].FeedBatch
			capture := sessions[0].(engine.SessionSnapshotter).AppendSnapshot
			if tc.shards > 0 {
				sh := engine.NewShardOpts(sessions, engine.ShardOptions{})
				defer sh.Wait()
				feed = func(jobs []sched.Job) error {
					if err := sh.FeedBatch(jobs); err != nil {
						return err
					}
					return sh.Quiesce()
				}
				capture = sh.AppendSnapshot
			}
			l, err := snapshot.OpenLineage(filepath.Join(t.TempDir(), "ckpt"), snapshot.LineageOptions{DeltaEvery: increments, Keep: 2})
			if err != nil {
				t.Fatal(err)
			}
			cfg := workload.DefaultConfig(n, m, 11)
			cfg.Load = 1.2
			jobs := workload.Random(cfg).Jobs

			var buf []byte
			var allocated uint64
			var before, after runtime.MemStats
			for k := 0; k < increments; k++ {
				if err := feed(jobs[k*n/increments : (k+1)*n/increments]); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&before)
				buf, err = capture(buf[:0])
				if err != nil {
					t.Fatal(err)
				}
				e, err := l.Write(buf, false)
				runtime.ReadMemStats(&after)
				if err != nil || (k > 0 && e.Kind != "delta") {
					t.Fatalf("checkpoint %d: %+v, %v", k, e, err)
				}
				allocated += after.TotalAlloc - before.TotalAlloc
			}
			if ratio := float64(allocated) / float64(len(buf)); ratio > tc.limit {
				t.Errorf("%d checkpoints allocated %d bytes, %.1f× the final %d-byte payload; want ≤ %v×",
					increments, allocated, ratio, len(buf), tc.limit)
			}
		})
	}
}
