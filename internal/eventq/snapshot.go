package eventq

import (
	"repro/internal/snapshot"
)

// Snapshot serializes the queue into one snapshot section payload: the
// insertion-sequence counter first, then every pending event in heap-slice
// order with its packed (Kind, seq) ord word. Writing the raw heap layout —
// not a sorted drain — keeps Snapshot O(n) and read-only, and lets Restore
// rebuild the identical array without re-heapifying: a valid heap's layout
// is itself the state.
//
// The ord word is what makes the round trip exact: it carries each event's
// original insertion sequence, so seq ties between events restored from a
// snapshot and events pushed after the restore resolve exactly as they would
// have in the uninterrupted run (new pushes continue from the restored
// counter).
func (q *Queue) Snapshot(e *snapshot.Encoder) {
	e.U64(q.seq)
	e.U64(uint64(len(q.h)))
	for i := range q.h {
		ev := &q.h[i]
		e.F64(ev.Time)
		e.U64(ev.ord)
		e.U32(uint32(ev.Job))
		e.U32(uint32(ev.Machine))
		e.U32(uint32(ev.Version))
	}
}

// eventWireBytes is the per-event payload size Snapshot writes, used to
// validate counts before allocating.
const eventWireBytes = 8 + 8 + 4 + 4 + 4

// SnapshotBytes is the size of the payload Snapshot writes for n pending
// events — either implementation's, since they share the wire format.
func SnapshotBytes(n int) int { return 16 + n*eventWireBytes }

// Restore replaces the queue's contents with a snapshot written by Snapshot,
// validating as it decodes: the count is bounds-checked against the section,
// every ord must carry a known Kind and an insertion sequence below the
// restored counter, and the (Time, ord) heap property of the serialized
// layout is re-verified — corrupt bytes that slip past the container CRC
// fail loudly here instead of silently popping events out of order.
func (q *Queue) Restore(d *snapshot.Decoder) error {
	seq := d.U64()
	n := d.Count(eventWireBytes)
	if err := d.Err(); err != nil {
		return err
	}
	h := q.h[:0]
	if cap(h) < n {
		h = make([]Event, 0, n)
	}
	for i := 0; i < n; i++ {
		ev := Event{
			Time:    d.F64(),
			ord:     d.U64(),
			Job:     int32(d.U32()),
			Machine: int32(d.U32()),
			Version: int32(d.U32()),
		}
		if d.Err() != nil {
			return d.Err()
		}
		kind := Kind(ev.ord >> ordShift)
		if kind != KindCompletion && kind != KindBookkeeping && kind != KindArrival {
			d.Failf("event %d has unknown kind %d", i, kind)
			return d.Err()
		}
		ev.Kind = kind
		if evSeq := ev.ord & (uint64(1)<<ordShift - 1); evSeq >= seq {
			d.Failf("event %d has insertion seq %d at or above the queue counter %d", i, evSeq, seq)
			return d.Err()
		}
		if i > 0 {
			if p := &h[(i-1)/arity]; less(&ev, p) {
				d.Failf("event %d violates the heap order against its parent", i)
				return d.Err()
			}
		}
		h = append(h, ev)
	}
	q.h = h
	q.seq = seq
	return nil
}
