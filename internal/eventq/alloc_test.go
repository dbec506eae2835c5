//go:build !race

package eventq

import (
	"math/rand"
	"testing"
)

// TestPushPopAllocatesNothing pins both queues' steady state on the engine's
// access pattern — arrivals marching forward, completions landing a bounded
// lead ahead, the population held near 1024: once grown, neither the heap's
// slice nor the calendar's buckets allocate. What a push+pop costs in time
// is the ledger's eventq.* rows.
func TestPushPopAllocatesNothing(t *testing.T) {
	for name, q := range map[string]Interface{"heap": &Queue{}, "calendar": &Calendar{}} {
		rng := rand.New(rand.NewSource(1))
		now, i := 0.0, int32(0)
		step := func() {
			if q.Len() >= 1024 {
				if e := q.Pop(); e.Time > now {
					now = e.Time
				}
				return
			}
			now += 0.01
			q.Push(Event{Time: now + rng.Float64()*3, Kind: Kind(rng.Intn(3)), Job: i})
			i++
		}
		for k := 0; k < 4096; k++ {
			step() // the calendar sizes its buckets on the first rotations
		}
		if a := testing.AllocsPerRun(1<<14, step); a != 0 {
			t.Errorf("%s: %v allocs per push/pop at ~1024 events, want 0", name, a)
		}
	}
}
