package eventq

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// roundTrip snapshots q through a full container write/read cycle and
// restores into a fresh queue, failing the test on any container or decode
// error.
func roundTrip(t *testing.T, q *Queue) *Queue {
	t.Helper()
	var q2 Queue
	restoreEVTQ(t, evtq(t, func(e *snapshot.Encoder) { q.Snapshot(e) }), &q2, nil)
	return &q2
}

// drainAll pops every event of q into a slice.
func drainAll(q *Queue) []Event {
	out := make([]Event, 0, q.Len())
	for q.Len() > 0 {
		out = append(out, q.Pop())
	}
	return out
}

// TestSnapshotRestorePopOrder is the round-trip equivalence test of the
// satellite task: a partially drained heap, snapshotted and restored, must
// pop the remaining events in exactly the order the original queue would
// have — including events tied on (Time, Kind) that only the preserved
// insertion sequence can order — and events pushed after the restore must
// interleave with restored ones exactly as post-snapshot pushes would have
// interleaved with the originals.
func TestSnapshotRestorePopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		var q Queue
		n := 5 + rng.Intn(120)
		for i := 0; i < n; i++ {
			// Coarse times and all three kinds: plenty of exact ties, so the
			// ordering is decided by the insertion seq inside ord.
			q.Push(Event{
				Time:    float64(rng.Intn(8)),
				Kind:    Kind(rng.Intn(3)),
				Job:     int32(i),
				Machine: int32(rng.Intn(4)),
				Version: int32(rng.Intn(3)),
			})
		}
		// Partially drain, then snapshot mid-life.
		drained := rng.Intn(n)
		for i := 0; i < drained; i++ {
			q.Pop()
		}
		q2 := roundTrip(t, &q)

		// Post-snapshot pushes on both queues: the restored seq counter must
		// make them tie-break identically against the surviving events.
		extra := rng.Intn(20)
		for i := 0; i < extra; i++ {
			ev := Event{
				Time:    float64(rng.Intn(8)),
				Kind:    Kind(rng.Intn(3)),
				Job:     int32(1000 + i),
				Machine: int32(rng.Intn(4)),
			}
			q.Push(ev)
			q2.Push(ev)
		}

		got, want := drainAll(q2), drainAll(&q)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d events restored, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: pop %d diverges: restored %+v, original %+v", trial, k, got[k], want[k])
			}
		}
	}
}

// TestSnapshotRestoreEmptyAndTiny covers the degenerate sizes.
func TestSnapshotRestoreEmptyAndTiny(t *testing.T) {
	var q Queue
	q2 := roundTrip(t, &q)
	if q2.Len() != 0 {
		t.Fatalf("empty queue restored with %d events", q2.Len())
	}
	q.Push(Event{Time: 3, Kind: KindArrival, Job: 1, Machine: -1})
	q2 = roundTrip(t, &q)
	if q2.Len() != 1 || q2.Pop() != q.Pop() {
		t.Fatal("single-event queue did not round-trip")
	}
}

// TestRestoreRejectsCorruptSemantics hand-crafts payloads that pass the
// container layer but violate the queue invariants: unknown kinds, seqs at
// or above the restored counter, and heap-order violations must all fail
// with positioned errors.
func TestRestoreRejectsCorruptSemantics(t *testing.T) {
	cases := []struct {
		name string
		fill func(e *snapshot.Encoder)
		want string
	}{
		{
			name: "unknown kind",
			fill: func(e *snapshot.Encoder) {
				e.U64(10)         // seq counter
				e.U64(1)          // one event
				e.F64(1)          // time
				e.U64(7<<56 | 0)  // ord with kind 7
				e.U32(0)          // job
				e.U32(^uint32(0)) // machine -1
				e.U32(0)          // version
			},
			want: "unknown kind",
		},
		{
			name: "seq above counter",
			fill: func(e *snapshot.Encoder) {
				e.U64(2) // counter
				e.U64(1)
				e.F64(1)
				e.U64(uint64(KindArrival)<<56 | 5) // seq 5 ≥ counter 2
				e.U32(0)
				e.U32(^uint32(0))
				e.U32(0)
			},
			want: "at or above the queue counter",
		},
		{
			name: "heap violation",
			fill: func(e *snapshot.Encoder) {
				e.U64(10)
				e.U64(2)
				// Parent at time 5, child at time 1: not a heap.
				e.F64(5)
				e.U64(uint64(KindArrival)<<56 | 0)
				e.U32(0)
				e.U32(^uint32(0))
				e.U32(0)
				e.F64(1)
				e.U64(uint64(KindArrival)<<56 | 1)
				e.U32(1)
				e.U32(^uint32(0))
				e.U32(0)
			},
			want: "violates the heap order",
		},
		{
			name: "count beyond payload",
			fill: func(e *snapshot.Encoder) {
				e.U64(10)
				e.U64(1 << 40)
			},
			want: "exceeds the",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := snapshot.AppendWriter(nil)
			if err := w.Section("EVTQ", tc.fill); err != nil {
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
			var q Queue
			if err := q.Restore(d, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// evtq writes one EVTQ section with fill and returns the container bytes.
func evtq(t *testing.T, fill func(e *snapshot.Encoder)) []byte {
	t.Helper()
	w := snapshot.AppendWriter(nil)
	if err := w.Section("EVTQ", fill); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// restoreEVTQ restores the EVTQ section of b into q, arrivals into held.
func restoreEVTQ(t *testing.T, b []byte, q Interface, held *[]Event) {
	t.Helper()
	r, err := snapshot.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("EVTQ")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Restore(d, held); err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotHeldArrivals holds arrivals kept outside the queue — stamped
// by Reserve, handed to Snapshot — to a queue that held them inside: both
// write the same EVTQ bytes. Restoring those bytes, or the raw heap layout
// older builds wrote, with a held list hands the arrivals back in pop order
// and queues only the rest, and popping the two merged by (Time, ord) gives
// the inside queue's pop order, under either implementation.
func TestSnapshotHeldArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var inside, layout, outside Queue
		var held []Event
		for i := 0; i < 5+rng.Intn(100); i++ {
			ev := Event{Time: float64(rng.Intn(6)), Kind: Kind(rng.Intn(3)), Job: int32(i), Machine: int32(rng.Intn(4))}
			if ev.Kind == KindArrival {
				ev.Machine = -1
				outside.Reserve(&ev)
				held = append(held, ev)
			} else {
				outside.Push(ev)
			}
			inside.Push(ev)
			layout.Push(ev)
		}
		slices.SortFunc(held, compare)
		sorted := evtq(t, func(e *snapshot.Encoder) { inside.Snapshot(e) })
		if got := evtq(t, func(e *snapshot.Encoder) { outside.Snapshot(e, held...) }); !bytes.Equal(got, sorted) {
			t.Fatalf("trial %d: held arrivals snapshot to other bytes than queued ones", trial)
		}
		// What older builds wrote: the heap array as it lies.
		legacy := evtq(t, func(e *snapshot.Encoder) { writeEvents(e, layout.seq, layout.h, nil) })
		want := drainAll(&inside)
		for _, b := range [][]byte{sorted, legacy} {
			for _, q := range []Interface{&Queue{}, NewCalendar()} {
				var back []Event
				restoreEVTQ(t, b, q, &back)
				var got []Event
				for q.Len() > 0 || len(back) > 0 {
					if len(back) > 0 && (q.Len() == 0 || less(&back[0], ptr(q.Peek()))) {
						got, back = append(got, back[0]), back[1:]
						continue
					}
					e := q.Pop()
					if e.Kind == KindArrival {
						t.Fatalf("trial %d: %T queued an arrival", trial, q)
					}
					got = append(got, e)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d, %T: restored with a held list, pops %v, want %v", trial, q, got, want)
				}
			}
		}
	}
}

func ptr(e Event) *Event { return &e }
