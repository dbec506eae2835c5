package sched

import (
	"testing"
)

func TestOutcomeRecorderFinalize(t *testing.T) {
	r := NewOutcomeRecorder(4)
	for k := 0; k < 5; k++ {
		if jk := r.Add(); jk != k {
			t.Fatalf("Add returned %d, want %d", jk, k)
		}
	}
	r.Assign(0, 2)
	r.Complete(0, 10.5)
	r.Assign(1, 0)
	r.Reject(1, 3.25)
	r.Assign(3, 1)
	// Slot 2 stays open and unassigned; slot 3 is dispatched but open;
	// slot 4 untouched.
	r.AppendInterval(Interval{Job: 100, Machine: 2, Start: 1, End: 10.5, Speed: 1})

	if r.Len() != 5 || r.CompletedCount() != 1 || r.RejectedCount() != 1 {
		t.Fatalf("counts: len %d completed %d rejected %d", r.Len(), r.CompletedCount(), r.RejectedCount())
	}
	if r.State(0) != JobCompleted || r.When(0) != 10.5 {
		t.Fatalf("slot 0: state %d when %v", r.State(0), r.When(0))
	}
	if r.State(2) != JobOpen || r.Machine(2) != NoMachine {
		t.Fatalf("slot 2: state %d machine %d", r.State(2), r.Machine(2))
	}
	if r.Machine(3) != 1 {
		t.Fatalf("slot 3 machine %d, want 1", r.Machine(3))
	}

	// Slot jk maps to external id 100+jk.
	out := r.Finalize(func(jk int) int { return 100 + jk })
	if len(out.Intervals) != 1 || out.Intervals[0].Job != 100 {
		t.Fatalf("intervals: %+v", out.Intervals)
	}
	if c, ok := out.Completed[100]; !ok || c != 10.5 || len(out.Completed) != 1 {
		t.Fatalf("Completed: %v", out.Completed)
	}
	if rj, ok := out.Rejected[101]; !ok || rj != 3.25 || len(out.Rejected) != 1 {
		t.Fatalf("Rejected: %v", out.Rejected)
	}
	want := map[int]int{100: 2, 101: 0, 103: 1}
	if len(out.Assigned) != len(want) {
		t.Fatalf("Assigned: %v, want %v", out.Assigned, want)
	}
	for id, m := range want {
		if out.Assigned[id] != m {
			t.Fatalf("Assigned[%d] = %d, want %d", id, out.Assigned[id], m)
		}
	}
}

// BenchmarkOutcomeRecord measures the dense recording path end to end: one
// op is a 10k-job run's worth of assignment/completion writes plus the
// single Finalize materialization — the work the engine's event loop and
// Close do per session.
func BenchmarkOutcomeRecord(b *testing.B) {
	const n = 10000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewOutcomeRecorder(n)
		for k := 0; k < n; k++ {
			r.Add()
			r.Assign(k, k&3)
			if k&15 == 0 {
				r.Reject(k, float64(k))
			} else {
				r.Complete(k, float64(k)+0.5)
			}
		}
		out := r.Finalize(func(jk int) int { return jk })
		if len(out.Completed)+len(out.Rejected) != n {
			b.Fatal("bad outcome")
		}
	}
}
