package speedscale

import (
	"testing"

	"repro/internal/sched"
)

// TestDualTrackingWithinEpsReleases regresses the arrival-order/feed-order
// mismatch (cf. the flowtime test of the same name): a later-fed job whose
// release is smaller within sched.Eps pops first and completes before the
// first job's arrival; the dual snapshot slice must be indexed by compact
// feed index.
func TestDualTrackingWithinEpsReleases(t *testing.T) {
	ins := &sched.Instance{
		Machines: 2,
		Alpha:    2,
		Jobs: []sched.Job{
			{ID: 0, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 2}},
			{ID: 1, Release: 1 - sched.Eps/2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1e-8, 3}},
			{ID: 2, Release: 2, Weight: 2, Deadline: sched.NoDeadline, Proc: []float64{2, 1}},
		},
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("instance must be valid: %v", err)
	}
	res, err := Run(ins, Options{Epsilon: 0.3, TrackDual: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dual.Lambda) != 3 {
		t.Fatalf("dual report has %d λ entries, want 3", len(res.Dual.Lambda))
	}
	if v := res.Dual.MonotoneV(ins, 16); v != nil {
		t.Fatalf("dual execution records corrupted: %v", v)
	}
}

// TestSessionRequiresExplicitAlpha pins the streaming-specific contract.
func TestSessionRequiresExplicitAlpha(t *testing.T) {
	if _, err := NewSession(2, Options{Epsilon: 0.3}); err == nil {
		t.Fatal("session without Alpha accepted")
	}
}
