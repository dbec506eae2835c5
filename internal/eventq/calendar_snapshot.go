package eventq

import (
	"slices"

	"repro/internal/snapshot"
)

// Snapshot serializes the calendar into the same EVTQ wire format as
// Queue.Snapshot: the insertion-sequence counter, the event count, then
// every pending event with its packed ord word, and every held event merged
// in, in (Time, ord) order. A fully sorted array satisfies the d-ary heap
// property for every d, so Queue.Restore's parent check accepts a calendar
// snapshot verbatim: a run frozen under the calendar resumes bit-identically
// under the heap, and vice versa.
//
// Sorted emission also makes the bytes canonical: a calendar and a heap
// holding the same events produce identical snapshots regardless of layout
// history, mirroring the determinism argument for pop order.
func (c *Calendar) Snapshot(e *snapshot.Encoder, held ...Event) {
	writeEvents(e, c.seq, c.collectSorted(), held)
}

// Restore replaces the calendar's contents with a snapshot written by either
// implementation's Snapshot, held arrivals going to *held as in
// Queue.Restore. Validation matches Queue.Restore where the check is
// layout-independent — known Kind, insertion seq below the restored counter
// — but no heap-property check applies: the calendar accepts events in any
// serialized order and re-buckets them by their own times, so an older
// build's heap-layout snapshot restores exactly as well as a sorted one.
func (c *Calendar) Restore(d *snapshot.Decoder, held *[]Event) error {
	seq := d.U64()
	n := d.Count(eventWireBytes)
	if err := d.Err(); err != nil {
		return err
	}
	c.clear()
	c.Grow(n)
	from := 0
	if held != nil {
		from = len(*held)
	}
	for i := 0; i < n; i++ {
		ev, ok := readEvent(d, i, seq)
		if !ok {
			return d.Err()
		}
		if held != nil && ev.Kind == KindArrival {
			*held = append(*held, ev)
		} else {
			c.place(ev)
		}
	}
	if held != nil {
		slices.SortFunc((*held)[from:], compare)
	}
	c.seq = seq
	return nil
}
