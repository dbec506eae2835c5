//go:build !race

package energymin

import "testing"

// TestPlaceAllocatesNothing pins that the greedy's strategy search runs on
// the scheduler's own buffers: placing a job on a loaded profile allocates
// only the amortized growth of the commitment list.
func TestPlaceAllocatesNothing(t *testing.T) {
	s, j := loadedScheduler(t)
	place := func() {
		if _, err := s.Place(j); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(200, place); a != 0 {
		t.Fatalf("Place on a loaded profile: %v allocs/op, want 0", a)
	}
}
