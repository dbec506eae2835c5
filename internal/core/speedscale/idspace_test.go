package speedscale

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestOutcomeInvariantUnderIDRelabeling pins the compact-index plumbing: the
// schedule must not depend on the numeric job IDs beyond their role as
// labels. Relabeling IDs far outside int32 range (forcing the sched.IDs
// map fallback and exercising the int32 event payloads) must yield the
// identical outcome modulo relabeling.
func TestOutcomeInvariantUnderIDRelabeling(t *testing.T) {
	cfg := workload.DefaultConfig(300, 3, 11)
	cfg.Weighted = true
	cfg.Load = 1.2
	ins := workload.Random(cfg)
	ins.Alpha = 2

	relabeled := ins.Clone()
	newID := make(map[int]int, len(ins.Jobs))
	for k := range relabeled.Jobs {
		// Sparse, non-monotone, far beyond int32.
		id := int(3_000_000_000) + ((len(relabeled.Jobs)-k)*7919)%100_000_000
		newID[relabeled.Jobs[k].ID] = id
		relabeled.Jobs[k].ID = id
	}

	base, err := Run(ins, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(relabeled, Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if base.RejectedWeight != got.RejectedWeight || base.Rejections != got.Rejections {
		t.Fatalf("rejections diverge under relabeling: %v/%d vs %v/%d",
			base.RejectedWeight, base.Rejections, got.RejectedWeight, got.Rejections)
	}
	for id, c := range base.Outcome.Completed {
		if gc, ok := got.Outcome.Completed[newID[id]]; !ok || gc != c {
			t.Fatalf("job %d completion %v != relabeled %v (ok=%v)", id, c, gc, ok)
		}
	}
	for id, m := range base.Outcome.Assigned {
		if gm, ok := got.Outcome.Assigned[newID[id]]; !ok || gm != m {
			t.Fatalf("job %d assignment %d != relabeled %d (ok=%v)", id, m, gm, ok)
		}
	}
	if len(base.Outcome.Intervals) != len(got.Outcome.Intervals) {
		t.Fatalf("interval counts diverge: %d vs %d", len(base.Outcome.Intervals), len(got.Outcome.Intervals))
	}
	for i := range base.Outcome.Intervals {
		a, b := base.Outcome.Intervals[i], got.Outcome.Intervals[i]
		if newID[a.Job] != b.Job || a.Machine != b.Machine || a.Start != b.Start || a.End != b.End || a.Speed != b.Speed {
			t.Fatalf("interval %d diverges: %+v vs %+v", i, a, b)
		}
	}
	// The relabeled instance must also hold up under ValidateOutcome.
	if err := sched.ValidateOutcome(relabeled, got.Outcome, sched.ValidateMode{}); err != nil {
		t.Fatalf("relabeled outcome invalid: %v", err)
	}
}
