//go:build !race

package sched

import "testing"

// TestScratchAuditAllocatesNothing pins the claim that lets a fleet audit
// every shard after every run: validation plus metrics on a held scratch
// reuse its arenas and allocate nothing once they have grown to the instance.
func TestScratchAuditAllocatesNothing(t *testing.T) {
	ins, o := scratchInstance(5000, 0, 1, 8)
	var s scratch
	audit := func() {
		if err := s.ValidateOutcome(ins, o, ValidateMode{RequireUnitSpeed: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ComputeMetrics(ins, o); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(5, audit); a != 0 {
		t.Fatalf("audit + metrics of 5000 jobs on a held scratch: %v allocs/run, want 0", a)
	}
}
