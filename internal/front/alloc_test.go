//go:build !race

package front

import (
	"bytes"
	"io"
	"log"
	"path/filepath"
	"runtime"
	"testing"
	"time"

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
// encodes every session straight into its region of the reused checkpoint
// buffer — O(shards) small allocations, and under 1/8 of the checkpoint's
// size in bytes.
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

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCheckpointRetainsTwoPayloads pins what checkpointing keeps between
// checkpoints on a growing stream with deltas on, fresh and then resumed
// from its own lineage with the stream growing on: the server's capture
// buffer and the lineage's base, each payload-sized, and the lineage's delta
// buffer. Nothing else: the live heap a fresh checkpointing server holds,
// less those buffers, is the heap of the same server run without
// checkpoints — the sessions keep no capture buffer — and dropping the
// capture buffer and the lineage frees those three buffers and no more.
func TestCheckpointRetainsTwoPayloads(t *testing.T) {
	const machines, n, every = 8, 15000, 2000 // n jobs a tenant a phase
	phase := func(p int) map[int][]sched.Job {
		jobs := map[int][]sched.Job{}
		for tenant := 0; tenant < 2; tenant++ {
			jobs[tenant] = shiftJobs(genJobs(uint64(10*p+tenant+1), n, machines), p*n, float64(p)*1e5)
		}
		return jobs
	}
	cfg := testConfig(machines, 2)
	cfg.AwaitTenants = 2
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, plain, phase(0))
	plainHeap := liveHeap()
	if _, err := plain.Drain(); err != nil {
		t.Fatal(err)
	}
	plain = nil

	cfg.CheckpointPath = filepath.Join(t.TempDir(), "front.ck")
	cfg.CheckpointEvery = every
	cfg.CheckpointDeltas = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if p == 1 {
			if s, err = Open(cfg, cfg.CheckpointPath, log.New(io.Discard, "", 0)); err != nil {
				t.Fatal(err)
			}
			feedInProcess(t, s, phase(0)) // the replay: every job a dup
		}
		resumed := s.Stats().Fed
		feedInProcess(t, s, phase(p))
		// The checkpoint a job triggers lands after its ack.
		for deadline := time.Now().Add(10 * time.Second); s.Stats().Checkpoints < (s.Stats().Fed-resumed)/every; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the periodic checkpoints did not land")
			}
		}
		payload, err := s.appendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		size := len(payload)
		payload = nil
		capacity := cap(s.ckptBuf)
		base, retired, delta := s.lineage.Held()
		if retired != 0 || capacity < size || base < size || delta == 0 || delta >= size {
			t.Fatalf("phase %d: capture %d, base %d, retired %d, delta %d bytes of capacity for a %d-byte checkpoint; want a capture and a base of a payload each, and a delta buffer",
				p, capacity, base, retired, delta, size)
		}
		held := int64(capacity + base + delta)
		withBuffers := int64(liveHeap())
		if extra := withBuffers - held - int64(plainHeap); p == 0 && extra > int64(size)/20 {
			t.Errorf("less its checkpoint buffers, the checkpointing server holds %d bytes more than the plain one, with %d-byte checkpoints: a capture buffer outside them", extra, size)
		}
		// Kill the server: it writes no checkpoint from here on, and lets go
		// of its capture buffer and its lineage.
		s.mu.Lock()
		s.cfg.CheckpointPath = ""
		s.ckptBuf, s.lineage = nil, nil
		s.mu.Unlock()
		defer s.Drain()
		if freed, slack := withBuffers-int64(liveHeap()), int64(1<<20); freed > held+slack || freed < held-slack {
			t.Errorf("phase %d: dropping the capture buffer and the lineage freed %d bytes; they hold %d (capture %d, base %d, delta %d)",
				p, freed, held, capacity, base, delta)
		}
	}
}
