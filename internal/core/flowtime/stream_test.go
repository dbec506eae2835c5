package flowtime

import (
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSessionFinalAdvance pins that AdvanceTo far beyond the horizon drains
// everything before Close, and Close still audits cleanly.
func TestSessionFinalAdvance(t *testing.T) {
	cfg := workload.DefaultConfig(200, 3, 2)
	cfg.Load = 1.4
	ins := workload.Random(cfg)
	s, err := NewSession(ins.Machines, Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for k := range ins.Jobs {
		if err := s.Feed(ins.Jobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AdvanceTo(1e12); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Run(ins, Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Outcome, res.Outcome) {
		t.Fatal("outcome diverges after a final AdvanceTo")
	}
}

// TestDualTrackingWithinEpsReleases regresses the arrival-order/feed-order
// mismatch: Instance.Validate (and Session.Feed) admit releases that
// decrease within sched.Eps, so a later-fed job can pop first. The dense
// dual slices must be indexed by compact feed index, not arrival order —
// the tiny second job here completes before the first job's arrival pops,
// which used to read past the slice end.
func TestDualTrackingWithinEpsReleases(t *testing.T) {
	ins := &sched.Instance{
		Machines: 2,
		Jobs: []sched.Job{
			{ID: 0, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 2}},
			{ID: 1, Release: 1 - sched.Eps/2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1e-8, 3}},
			{ID: 2, Release: 2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{2, 1}},
		},
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("instance must be valid: %v", err)
	}
	res, err := Run(ins, Options{Epsilon: 0.3, TrackDual: true})
	if err != nil {
		t.Fatal(err)
	}
	var ix sched.IDs
	ix.Build(ins.Jobs)
	for _, id := range []int{0, 1, 2} {
		if _, ok := res.Dual.Lambda[id]; !ok {
			t.Fatalf("dual report missing λ for job %d", id)
		}
		if res.Dual.CTilde[id] < ins.Jobs[ix.Of(id)].Release {
			t.Fatalf("job %d: C̃ %v before release", id, res.Dual.CTilde[id])
		}
	}
	// λ must reflect each job's own dispatch: job 1's tiny processing time
	// gives it the smallest λ by orders of magnitude, so a permutation of
	// the dense slices would misattribute it.
	if !(res.Dual.Lambda[1] < res.Dual.Lambda[0] && res.Dual.Lambda[1] < res.Dual.Lambda[2]) {
		t.Fatalf("λ misattributed across within-Eps arrivals: %v", res.Dual.Lambda)
	}
}

func TestSessionRejectsOutOfOrderFeed(t *testing.T) {
	s, err := NewSession(2, Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(sched.Job{ID: 0, Release: 5, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(sched.Job{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 2}}); err == nil {
		t.Fatal("out-of-order release accepted")
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
