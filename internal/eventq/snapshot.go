package eventq

import (
	"slices"

	"repro/internal/snapshot"
)

// Snapshot serializes the queue into one snapshot section payload, the EVTQ
// wire format both implementations share: the insertion-sequence counter,
// the event count, then every pending event in pop order — (Time, ord) —
// with its packed (Kind, seq) ord word.
//
// The heap array is sorted in place first. A sorted array is itself a valid
// heap for any arity, so what pops next does not change, the sort needs no
// scratch, and the next snapshot of a barely changed queue sorts an almost
// sorted array. Pop order makes the bytes canonical: two queues holding the
// same events — a heap and a calendar included — write the same bytes,
// whatever push and pop history left them in their layout.
//
// The ord word is what makes the round trip exact: it carries each event's
// original insertion sequence, so seq ties between events restored from a
// snapshot and events pushed after the restore resolve exactly as they would
// have in the uninterrupted run (new pushes continue from the restored
// counter).
func (q *Queue) Snapshot(e *snapshot.Encoder) {
	slices.SortFunc(q.h, compare)
	writeEvents(e, q.seq, q.h)
}

// writeEvents writes an EVTQ payload: the counter seq, the event count, then
// the events, already in (Time, ord) order.
func writeEvents(e *snapshot.Encoder, seq uint64, evs []Event) {
	e.U64(seq)
	e.U64(uint64(len(evs)))
	for k := range evs {
		ev := &evs[k]
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

// readEvent decodes event i of an EVTQ payload and checks what holds in any
// serialized layout: a known Kind, and an insertion seq below the restored
// counter seq. It reports false once the decoder has failed.
func readEvent(d *snapshot.Decoder, i int, seq uint64) (Event, bool) {
	ev := Event{
		Time:    d.F64(),
		ord:     d.U64(),
		Job:     int32(d.U32()),
		Machine: int32(d.U32()),
		Version: int32(d.U32()),
	}
	if d.Err() != nil {
		return ev, false
	}
	kind := Kind(ev.ord >> ordShift)
	if kind != KindCompletion && kind != KindBookkeeping && kind != KindArrival {
		d.Failf("event %d has unknown kind %d", i, kind)
		return ev, false
	}
	ev.Kind = kind
	if evSeq := ev.ord & (uint64(1)<<ordShift - 1); evSeq >= seq {
		d.Failf("event %d has insertion seq %d at or above the queue counter %d", i, evSeq, seq)
		return ev, false
	}
	return ev, true
}

// Restore replaces the queue's contents with a snapshot written by either
// implementation's Snapshot, validating as it decodes: the count is
// bounds-checked against the section, every ord must carry a known Kind and
// an insertion seq below the restored counter, and the (Time, ord) heap
// property of the serialized layout is re-verified — corrupt bytes that slip
// past the container CRC fail loudly here instead of silently popping events
// out of order. Pop order passes that check, and so does the raw heap layout
// older builds wrote, which the engine then refuses by name.
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
		ev, ok := readEvent(d, i, seq)
		if !ok {
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
