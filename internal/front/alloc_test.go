//go:build !race

package front

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// TestIngestAllocsPerJob pins the in-process ingestion path end to end —
// Push, merge, dedupe, admission, shard feed, ack, on every goroutine
// involved — at two allocations a job (measured: one, the amortized growth
// of the per-job tables; DESIGN.md). Telemetry runs live: the stream-lag
// gauge, the decide/pop-wait/ack histograms and the admission and engine
// bundles are all on the counted path.
func TestIngestAllocsPerJob(t *testing.T) {
	const jobs = 20000
	cfg := testConfig(2, 2)
	cfg.QueueDepth = 512
	cfg.SizeHint = jobs + 1 // AllocsPerRun warms up with one extra call
	cfg.Obs = obs.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.OpenStream(1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range st.Acks() {
		}
	}()
	proc := []float64{1.5, 2.5}
	i := 0
	perJob := testing.AllocsPerRun(jobs, func() {
		j := sched.Job{ID: i, Release: float64(i) * 1e-7, Weight: 1, Proc: proc, Deadline: sched.NoDeadline}
		if err := st.Push(j); err != nil {
			t.Fatal(err)
		}
		i++
	})
	st.CloseSend()
	<-done
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if perJob > 2 {
		t.Fatalf("ingest: %v allocs/job, want ≤ 2", perJob)
	}
}
