//go:build !race

package front

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// TestIngestAllocsPerJob pins the in-process ingestion path end to end —
// Push or PushBatch, merge, dedupe, admission, shard feed, ack, on every
// goroutine involved — at under 0.05 allocations a job (measured: 0.0014
// either way; DESIGN.md). Telemetry runs live:
// the stream-lag gauge, the decide/pop-wait/ack histograms and the
// admission and engine bundles are all on the counted path.
func TestIngestAllocsPerJob(t *testing.T) {
	for _, tc := range []struct {
		name string
		push func(st *Stream, jobs []sched.Job) error
	}{
		{"Push", func(st *Stream, jobs []sched.Job) error {
			for _, j := range jobs {
				if err := st.Push(j); err != nil {
					return err
				}
			}
			return nil
		}},
		{"PushBatch", func(st *Stream, jobs []sched.Job) error {
			for len(jobs) > 0 {
				n := min(64, len(jobs))
				if err := st.PushBatch(jobs[:n]); err != nil {
					return err
				}
				jobs = jobs[n:]
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const jobs = 20000
			cfg := testConfig(2, 2)
			cfg.QueueDepth = 512
			cfg.SizeHint = 2 * jobs // AllocsPerRun warms up with one extra run
			cfg.Obs = obs.NewRegistry()
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.OpenStream(1)
			if err != nil {
				t.Fatal(err)
			}
			acked := make(chan struct{}, 2*jobs)
			go func() {
				for range st.Acks() {
					acked <- struct{}{}
				}
			}()
			proc := []float64{1.5, 2.5}
			all := make([]sched.Job, 2*jobs)
			for i := range all {
				all[i] = sched.Job{ID: i, Release: float64(i) * 1e-7, Weight: 1, Proc: proc, Deadline: sched.NoDeadline}
			}
			next := 0
			perRun := testing.AllocsPerRun(1, func() {
				if err := tc.push(st, all[next:next+jobs]); err != nil {
					t.Fatal(err)
				}
				next += jobs
				for range jobs {
					<-acked
				}
			})
			st.CloseSend()
			if _, err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			if perJob := perRun / jobs; perJob > 0.05 {
				t.Fatalf("ingest: %v allocs/job, want ≤ 0.05", perJob)
			}
		})
	}
}

// TestCaptureReusesBuffers pins the steady state of checkpoint capture: a
// second capture at the same merged prefix, with nothing fed in between,
// re-encodes every session into the capture buffer its shard kept and frames
// the fleet into the reused checkpoint buffer — O(shards) small allocations,
// and under 1/8 of the checkpoint's size in bytes.
func TestCaptureReusesBuffers(t *testing.T) {
	const shards = 4
	cfg := testConfig(2, shards)
	cfg.AwaitTenants = shards
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make(map[int][]sched.Job)
	for tenant := range shards {
		jobs[tenant] = genJobs(uint64(tenant+1), 3000, 2)
	}
	// Every stream closes, so the sequencer parks and capture may run here.
	feedInProcess(t, s, jobs)
	first, err := s.appendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	again, err := s.appendSnapshot(first[:0])
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("a second capture at the same prefix wrote different bytes")
	}
	if objs, limit := after.Mallocs-before.Mallocs, uint64(16*shards+32); objs > limit {
		t.Errorf("second capture allocated %d objects, want ≤ %d (O(shards))", objs, limit)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > uint64(len(want)/8) {
		t.Errorf("second capture allocated %d bytes for a %d-byte checkpoint, want under 1/8", b, len(want))
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainAllocs pins the drain's footprint: folding the report of a
// 2-shard, 200k-job, two-tenant stream allocates at most 4 bytes a fed job —
// one int32 slot permutation, which a shard interleaving tenants needs — plus
// O(tenants + shards). Tenants 0 and 2 both route to shard 0, so it takes
// that path. A drain that rebuilt the outcome as maps or rows would allocate
// tens of bytes a job. The stream runs at three quarters of the shard's
// capacity and the size hint covers a shard holding all of it, so the run's
// own storage is grown before the drain, which finishes a short backlog.
func TestDrainAllocs(t *testing.T) {
	const jobs = 100000 // per tenant
	cfg := testConfig(2, 2)
	cfg.QueueDepth = 512
	cfg.SizeHint = 4 * jobs // PerShardHint gives each shard more than 2*jobs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proc := []float64{1.5, 2.5}
	streams := make(map[int][]sched.Job)
	for _, tenant := range []int{0, 2} {
		all := make([]sched.Job, jobs)
		for i := range all {
			all[i] = sched.Job{ID: i, Release: float64(i) * 2.5, Weight: float64(1 + i%3), Proc: proc, Deadline: sched.NoDeadline}
		}
		streams[tenant] = all
	}
	feedInProcess(t, s, streams)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := s.Drain()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fed != 2*jobs {
		t.Fatalf("report counts %d fed, want %d", rep.Fed, 2*jobs)
	}
	if b, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*2*jobs+64<<10); b > limit {
		t.Errorf("drain allocated %d bytes for %d fed jobs (%.1f B/job), want ≤ %d", b, 2*jobs, float64(b)/(2*jobs), limit)
	}
}
