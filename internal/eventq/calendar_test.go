package eventq

import (
	"math/rand"
	"testing"
)

// Compile-time check: both implementations satisfy the engine seam.
var (
	_ Interface = (*Queue)(nil)
	_ Interface = (*Calendar)(nil)
)

// TestCalendarMatchesHeapRandom drives a heap and a calendar through the
// same random operation stream — pushes at arbitrary (non-monotone) times,
// interleaved pops — and requires identical pop sequences. Non-monotone
// pushes land below the calendar's window after reseeds, covering the low
// rung; tie-heavy coarse times make the ord word load-bearing.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		var h Queue
		var c Calendar
		coarse := trial%2 == 0
		for op := 0; op < 600; op++ {
			if h.Len() == 0 || rng.Intn(3) > 0 {
				tt := rng.Float64() * 50
				if coarse {
					tt = float64(rng.Intn(12))
				}
				ev := Event{Time: tt, Kind: Kind(rng.Intn(3)), Job: int32(op), Machine: int32(rng.Intn(4))}
				h.Push(ev)
				c.Push(ev)
			} else {
				a, b := h.Pop(), c.Pop()
				if a != b {
					t.Fatalf("trial %d op %d: calendar diverged: heap %+v calendar %+v", trial, op, a, b)
				}
			}
		}
		for h.Len() > 0 {
			a, b := h.Pop(), c.Pop()
			if a != b {
				t.Fatalf("trial %d drain: heap %+v calendar %+v", trial, a, b)
			}
		}
		if c.Len() != 0 {
			t.Fatalf("trial %d: calendar holds %d leftover events", trial, c.Len())
		}
	}
}

// TestCalendarBoundaryTies is the pop-order property test of the satellite
// task: events sharing one exact timestamp must pop by (Kind, seq) no matter
// where that timestamp falls relative to the calendar's bucket boundaries.
// The calendar is forced through a reseed with a known window geometry, then
// ties are planted exactly at bucket boundaries (start + k·width), just
// inside, and just outside; equal times always hash to the same bucket, so
// the within-bucket ord scan must decide — the heap is the oracle.
func TestCalendarBoundaryTies(t *testing.T) {
	for _, span := range []float64{1, 3, 7.5, 1e-3, 1e6} {
		var h Queue
		var c Calendar
		push := func(ev Event) { h.Push(ev); c.Push(ev) }
		// Seed a window: two events spanning [0, span] force width = span/(nb−1).
		push(Event{Time: 0, Kind: KindArrival, Job: -100})
		push(Event{Time: span, Kind: KindArrival, Job: -101})
		if a, b := h.Pop(), c.Pop(); a != b {
			t.Fatalf("span %v: seed pop diverged", span)
		}
		// The calendar's window now starts at 0 with width span/(calMinBuckets−1).
		w := span / float64(calMinBuckets-1)
		job := int32(0)
		for k := 0; k < calMinBuckets; k++ {
			boundary := float64(k) * w
			for _, tt := range []float64{boundary, boundary + w/4, boundary - w/4} {
				if tt < 0 {
					continue
				}
				// Three same-timestamp events of each kind, planted twice so
				// seq ties exist within a kind as well.
				for rep := 0; rep < 2; rep++ {
					for kind := Kind(0); kind < 3; kind++ {
						push(Event{Time: tt, Kind: kind, Job: job})
						job++
					}
				}
			}
		}
		for h.Len() > 0 {
			a, b := h.Pop(), c.Pop()
			if a != b {
				t.Fatalf("span %v: boundary tie diverged: heap %+v calendar %+v", span, a, b)
			}
		}
		if c.Len() != 0 {
			t.Fatalf("span %v: calendar holds %d leftover events", span, c.Len())
		}
	}
}

// TestCalendarSingleInstant: every event at one timestamp collapses the
// window to a degenerate span; pop order is pure (Kind, seq).
func TestCalendarSingleInstant(t *testing.T) {
	var h Queue
	var c Calendar
	for i := 0; i < 64; i++ {
		ev := Event{Time: 42, Kind: Kind(i % 3), Job: int32(i)}
		h.Push(ev)
		c.Push(ev)
	}
	for h.Len() > 0 {
		if a, b := h.Pop(), c.Pop(); a != b {
			t.Fatalf("single-instant tie diverged: heap %+v calendar %+v", a, b)
		}
	}
}

// FuzzCalendarVsHeap is the differential fuzz of the two implementations:
// an arbitrary operation stream (pushes with fuzzer-chosen times and kinds,
// and pops) must produce identical pop sequences from both.
func FuzzCalendarVsHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 5, 6, 255, 8, 9})
	f.Add([]byte{10, 10, 10, 10, 10, 10, 255, 255})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			return
		}
		var h Queue
		var c Calendar
		for step, op := range ops {
			if op >= 200 && h.Len() > 0 {
				a, b := h.Pop(), c.Pop()
				if a != b {
					t.Fatalf("step %d: pop diverged: heap %+v calendar %+v", step+1, a, b)
				}
				continue
			}
			// Times from a coarse grid (op low bits scaled) so exact ties
			// are common; occasionally huge or fractional to stress window
			// geometry. Never NaN: the contract excludes it.
			tt := float64(op&63) * 0.25
			if op&64 != 0 {
				tt *= 1e6
			}
			ev := Event{Time: tt, Kind: Kind(op % 3), Job: int32(step + 1)}
			h.Push(ev)
			c.Push(ev)
		}
		for h.Len() > 0 {
			a, b := h.Pop(), c.Pop()
			if a != b {
				t.Fatalf("drain: heap %+v calendar %+v", a, b)
			}
		}
		if c.Len() != 0 {
			t.Fatalf("calendar holds %d leftover events", c.Len())
		}
	})
}
