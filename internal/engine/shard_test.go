package engine

import (
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// shardSetup builds K fifo sessions over m machines each.
func shardSetup(t *testing.T, k, m int) ([]*Session, []Feeder) {
	t.Helper()
	sessions := make([]*Session, k)
	feeders := make([]Feeder, k)
	for i := range sessions {
		s, err := NewSession(newFifo(m, 0), Options{Machines: m})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		feeders[i] = s
	}
	return sessions, feeders
}

// TestShardMatchesSequentialRouting pins that the concurrent shard runner
// produces, per shard, exactly the outcome of feeding that shard's
// subsequence sequentially: the workers add concurrency, never reordering.
func TestShardMatchesSequentialRouting(t *testing.T) {
	cfg := workload.DefaultConfig(400, 3, 11)
	cfg.Load = 1.2
	ins := workload.Random(cfg)
	const K = 4

	// Reference: route by id, feed each shard session inline.
	refSessions, _ := shardSetup(t, K, ins.Machines)
	for k := range ins.Jobs {
		j := ins.Jobs[k]
		if err := refSessions[RouteByID(&j, K)].Feed(j); err != nil {
			t.Fatal(err)
		}
	}
	refOut := make([]*sched.Outcome, K)
	for k, s := range refSessions {
		out, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		refOut[k] = out
	}

	// Shard runner: same routing, worker goroutines.
	sessions, feeders := shardSetup(t, K, ins.Machines)
	sh := NewShardOpts(feeders, ShardOptions{})
	for k := range ins.Jobs {
		if err := sh.Feed(ins.Jobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Wait(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for k, s := range sessions {
		out, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, refOut[k]) {
			t.Fatalf("shard %d outcome diverges from sequential routing", k)
		}
		total += len(out.Completed) + len(out.Rejected)
	}
	if total != len(ins.Jobs) {
		t.Fatalf("%d jobs accounted across shards, want %d", total, len(ins.Jobs))
	}
}

func TestShardFeedErrorSurfacesInWait(t *testing.T) {
	sessions, feeders := shardSetup(t, 2, 1)
	sh := newShard(feeders, nil, 1, 4)
	if err := sh.Feed(job(0, 5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sh.Feed(job(2, 1, 1)); err != nil { // out of order on shard 0
		t.Fatal(err)
	}
	if err := sh.Wait(); err == nil {
		t.Fatal("out-of-order feed did not surface in Wait")
	}
	for _, s := range sessions {
		s.Close()
	}
	if err := sh.Feed(job(4, 9, 1)); err != ErrClosed {
		t.Fatalf("Feed after Wait: %v, want ErrClosed", err)
	}
	if err := sh.Wait(); err != ErrClosed {
		t.Fatalf("second Wait: %v, want ErrClosed", err)
	}
}

// plainFeeder hides FeedBatch so the worker takes the per-job fallback.
type plainFeeder struct{ s *Session }

func (p plainFeeder) Feed(j sched.Job) error { return p.s.Feed(j) }

// TestShardOptionsMatchReference pins that the slab geometry is not
// behaviour: one-job and never-filling slabs, one slab and many, the fixed
// production geometry, and the per-job fallback for feeders without
// FeedBatch all produce outcomes bit-identical to inline sequential routing.
func TestShardOptionsMatchReference(t *testing.T) {
	cfg := workload.DefaultConfig(500, 3, 5)
	cfg.Load = 1.3
	ins := workload.Random(cfg)
	const K = 3

	refSessions, _ := shardSetup(t, K, ins.Machines)
	for k := range ins.Jobs {
		j := ins.Jobs[k]
		if err := refSessions[RouteByID(&j, K)].Feed(j); err != nil {
			t.Fatal(err)
		}
	}
	refOut := make([]*sched.Outcome, K)
	for k, s := range refSessions {
		out, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		refOut[k] = out
	}

	geometries := []struct{ slabJobs, slabs int }{
		{1, 4},
		{7, 2},
		{16, 1}, // single slab: fully serialized handoff
		{4096, 4},
		{slabJobs, slabCount},
	}
	for _, plain := range []bool{false, true} {
		for _, g := range geometries {
			sessions, feeders := shardSetup(t, K, ins.Machines)
			if plain {
				for k := range feeders {
					feeders[k] = plainFeeder{sessions[k]}
				}
			}
			sh := newShard(feeders, nil, g.slabJobs, g.slabs)
			for k := range ins.Jobs {
				if err := sh.Feed(ins.Jobs[k]); err != nil {
					t.Fatal(err)
				}
			}
			if err := sh.Wait(); err != nil {
				t.Fatal(err)
			}
			for k, s := range sessions {
				out, err := s.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(out, refOut[k]) {
					t.Fatalf("geometry %+v plain=%v: shard %d outcome diverges from sequential routing", g, plain, k)
				}
			}
		}
	}
}

// TestShardFeedBatchCoalesces drives the producer-side FeedBatch entry with
// odd-sized batches; slabs must keep filling across batch boundaries and
// the result must still match the reference.
func TestShardFeedBatchCoalesces(t *testing.T) {
	cfg := workload.DefaultConfig(400, 2, 8)
	cfg.Load = 1.2
	ins := workload.Random(cfg)
	const K = 2

	refSessions, _ := shardSetup(t, K, ins.Machines)
	for k := range ins.Jobs {
		j := ins.Jobs[k]
		if err := refSessions[RouteByID(&j, K)].Feed(j); err != nil {
			t.Fatal(err)
		}
	}
	sessions, feeders := shardSetup(t, K, ins.Machines)
	sh := newShard(feeders, nil, 32, 4)
	for lo := 0; lo < len(ins.Jobs); lo += 17 {
		hi := min(lo+17, len(ins.Jobs))
		if err := sh.FeedBatch(ins.Jobs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Quiesce(); err != nil { // hands over the partial slabs
		t.Fatal(err)
	}
	if err := sh.Wait(); err != nil {
		t.Fatal(err)
	}
	for k, s := range sessions {
		out, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refSessions[k].Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, ref) {
			t.Fatalf("shard %d outcome diverges under FeedBatch ingestion", k)
		}
	}
}

func TestRouteByTenantAffinityAndSpread(t *testing.T) {
	const shards = 8
	route := RouteByTenant(func(j *sched.Job) int { return j.ID / 100 })
	used := map[int]bool{}
	for tenant := 0; tenant < 64; tenant++ {
		want := route(&sched.Job{ID: tenant * 100}, shards)
		if want < 0 || want >= shards {
			t.Fatalf("tenant %d routed to %d of %d", tenant, want, shards)
		}
		used[want] = true
		for off := 1; off < 100; off += 37 {
			if got := route(&sched.Job{ID: tenant*100 + off}, shards); got != want {
				t.Fatalf("tenant %d split across shards %d and %d", tenant, want, got)
			}
		}
	}
	// 64 tenants over 8 shards: the mixed hash must not collapse to a few.
	if len(used) < shards/2 {
		t.Fatalf("64 tenants landed on only %d of %d shards", len(used), shards)
	}
}

func TestShardWithoutFeedersErrors(t *testing.T) {
	sh := NewShardOpts(nil, ShardOptions{})
	if err := sh.Feed(job(0, 0, 1)); err == nil {
		t.Fatal("Feed on an empty shard must error, not panic")
	}
	if err := sh.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRouteByIDNegativeIDs(t *testing.T) {
	j := sched.Job{ID: -7}
	if k := RouteByID(&j, 4); k < 0 || k >= 4 {
		t.Fatalf("RouteByID(-7, 4) = %d", k)
	}
}
