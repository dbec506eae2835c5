//go:build !race

package policy

import "testing"

// TestRunAllocsDoNotGrowWithN pins the hot-path discipline every registered
// policy inherits from the engine: per-job state is dense and presized from
// the instance, so a batch Run allocates O(1) in n (a few hundred slices and
// maps, measured 169–329) rather than per job. n/20 leaves room for a policy
// with more tables and none for a per-job allocation.
func TestRunAllocsDoNotGrowWithN(t *testing.T) {
	const n = 10000
	ins := random(n, 4, 3, 1.2, true, 2)
	for _, e := range table {
		run := func() {
			if _, err := e.Run(ins, Params{Epsilon: 0.2, Alpha: ins.Alpha}); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(2, run); a > n/20 {
			t.Errorf("%s: %v allocs for a %d-job Run, want ≤ %d", e.Name, a, n, n/20)
		}
	}
}
