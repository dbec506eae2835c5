package eventq

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/snapshot"
)

// Compile-time check: both implementations satisfy the engine seam.
var (
	_ Interface = (*Queue)(nil)
	_ Interface = (*Calendar)(nil)
)

// snapRoundTrip snapshots src through a full container cycle and restores
// into dst, failing the test on any error. src and dst may be different
// implementations: the EVTQ wire format is shared.
func snapRoundTrip(t *testing.T, src, dst Interface) {
	t.Helper()
	restoreEVTQ(t, evtq(t, func(e *snapshot.Encoder) { src.Snapshot(e) }), dst, nil)
}

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

// TestCalendarSnapshotCrossImplementation freezes a partially drained run
// under each implementation and restores it under the other; both resumed
// queues (and post-restore pushes, which must tie-break against restored
// events via the preserved seq counter) must replay exactly the uninterrupted
// heap's tail. This is the bit-identical cross-impl resume contract.
func TestCalendarSnapshotCrossImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(150)
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{Time: float64(rng.Intn(10)), Kind: Kind(rng.Intn(3)), Job: int32(i), Machine: int32(rng.Intn(4))}
		}
		drained := rng.Intn(n)
		extra := make([]Event, rng.Intn(20))
		for i := range extra {
			extra[i] = Event{Time: float64(rng.Intn(10)), Kind: Kind(rng.Intn(3)), Job: int32(2000 + i)}
		}

		// Oracle: an uninterrupted heap.
		var oracle Queue
		for _, e := range events {
			oracle.Push(e)
		}
		for i := 0; i < drained; i++ {
			oracle.Pop()
		}
		for _, e := range extra {
			oracle.Push(e)
		}
		want := make([]Event, 0, oracle.Len())
		for oracle.Len() > 0 {
			want = append(want, oracle.Pop())
		}

		// heap→calendar and calendar→heap, mid-sequence.
		var h Queue
		var c Calendar
		for _, e := range events {
			h.Push(e)
			c.Push(e)
		}
		for i := 0; i < drained; i++ {
			h.Pop()
			c.Pop()
		}
		var fromHeap Calendar
		var fromCal Queue
		snapRoundTrip(t, &h, &fromHeap)
		snapRoundTrip(t, &c, &fromCal)
		for _, e := range extra {
			fromHeap.Push(e)
			fromCal.Push(e)
		}
		for k, w := range want {
			a := fromHeap.Pop()
			b := fromCal.Pop()
			if a != w {
				t.Fatalf("trial %d pop %d: heap→calendar resume diverged: got %+v want %+v", trial, k, a, w)
			}
			if b != w {
				t.Fatalf("trial %d pop %d: calendar→heap resume diverged: got %+v want %+v", trial, k, b, w)
			}
		}
		if fromHeap.Len() != 0 || fromCal.Len() != 0 {
			t.Fatalf("trial %d: leftovers after resume: %d / %d", trial, fromHeap.Len(), fromCal.Len())
		}
	}
}

// TestCalendarRestoreRejectsCorruptSemantics mirrors the heap's validation
// for the layout-independent checks (the calendar accepts any event order,
// so there is no heap-property case).
func TestCalendarRestoreRejectsCorruptSemantics(t *testing.T) {
	build := func(fill func(e *snapshot.Encoder)) *snapshot.Decoder {
		w := snapshot.AppendWriter(nil)
		if err := w.Section("EVTQ", fill); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := snapshot.NewReader(bytes.NewReader(w.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.Section("EVTQ")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var c Calendar
	d := build(func(e *snapshot.Encoder) {
		e.U64(10)
		e.U64(1)
		e.F64(1)
		e.U64(7 << 56) // unknown kind
		e.U32(0)
		e.U32(^uint32(0))
		e.U32(0)
	})
	if err := c.Restore(d, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
	d = build(func(e *snapshot.Encoder) {
		e.U64(2)
		e.U64(1)
		e.F64(1)
		e.U64(uint64(KindArrival)<<56 | 5) // seq 5 ≥ counter 2
		e.U32(0)
		e.U32(^uint32(0))
		e.U32(0)
	})
	if err := c.Restore(d, nil); err == nil {
		t.Fatal("seq above counter accepted")
	}
}

// FuzzCalendarVsHeap is the differential fuzz of the two implementations:
// an arbitrary operation stream (pushes with fuzzer-chosen times and kinds,
// pops, and a mid-sequence snapshot taken under one implementation and
// restored under the other) must produce identical pop sequences from both,
// and the mid-sequence snapshots of the two must be the same bytes.
func FuzzCalendarVsHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 5, 6, 255, 8, 9}, uint16(5), false)
	f.Add([]byte{10, 10, 10, 10, 10, 10, 255, 255}, uint16(2), true)
	f.Add([]byte{}, uint16(0), false)
	f.Fuzz(func(t *testing.T, ops []byte, snapAt uint16, snapUnderCalendar bool) {
		if len(ops) > 2048 {
			return
		}
		var h Queue
		var c Calendar
		step := 0
		for _, op := range ops {
			step++
			if op >= 200 && h.Len() > 0 {
				a, b := h.Pop(), c.Pop()
				if a != b {
					t.Fatalf("step %d: pop diverged: heap %+v calendar %+v", step, a, b)
				}
			} else {
				// Times from a coarse grid (op low bits scaled) so exact ties
				// are common; occasionally huge or fractional to stress window
				// geometry. Never NaN: the contract excludes it.
				tt := float64(op&63) * 0.25
				if op&64 != 0 {
					tt *= 1e6
				}
				ev := Event{Time: tt, Kind: Kind(op % 3), Job: int32(step)}
				h.Push(ev)
				c.Push(ev)
			}
			if step == int(snapAt) {
				// Freeze under one impl, resume BOTH from that snapshot — the
				// cross-impl restore must hand back exactly the same state.
				// Both write pop order, so the same events give the same
				// bytes whatever layout each implementation holds them in.
				hb := evtq(t, func(e *snapshot.Encoder) { h.Snapshot(e) })
				cb := evtq(t, func(e *snapshot.Encoder) { c.Snapshot(e) })
				if !bytes.Equal(hb, cb) {
					t.Fatalf("step %d: heap and calendar snapshots of the same events differ", step)
				}
				w := hb
				if snapUnderCalendar {
					w = cb
				}
				var nh Queue
				var nc Calendar
				restoreEVTQ(t, w, &nh, nil)
				restoreEVTQ(t, w, &nc, nil)
				h, c = nh, nc
			}
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
