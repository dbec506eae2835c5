package eventq

import "repro/internal/snapshot"

// Interface is the seam between the engine and an event-queue
// implementation. Both Queue (the 4-ary heap) and Calendar (the bucketed
// ladder queue) satisfy it with the exact same observable contract: events
// pop in (Time, Kind, insertion-seq) order, and Snapshot/Restore speak one
// shared wire format (see snapshot.go) so a run frozen under either
// implementation resumes bit-identically under the other.
//
// The seam is deliberately narrow — exactly the surface the engine consumes —
// so implementations stay swappable behind engine.Options.EventQueue without
// the engine knowing which one it drives.
type Interface interface {
	// Push inserts an event, assigning the next insertion sequence.
	Push(e Event)
	// Reserve stamps *e with the next insertion sequence, as Push would,
	// without queuing it: for an event the caller holds outside the queue.
	Reserve(e *Event)
	// Pop removes and returns the earliest event; panics when empty.
	Pop() Event
	// Peek returns the earliest event without removing it; panics when
	// empty. Implementations may advance internal cursors (a calendar skips
	// exhausted rungs) but the observable event sequence never changes.
	Peek() Event
	// Len reports the number of pending events.
	Len() int
	// Scan calls fn on every pending event in an implementation-defined
	// order (NOT pop order), stopping early when fn returns false. Read-only.
	Scan(fn func(e *Event) bool)
	// Snapshot serializes the pending events with their ord words into the
	// shared EVTQ wire format, in pop order, with held — events the caller
	// holds outside the queue, stamped by Reserve and in pop order — merged
	// in.
	Snapshot(e *snapshot.Encoder, held ...Event)
	// Restore replaces the contents with a snapshot written by any
	// implementation's Snapshot, validating as it decodes. With a non-nil
	// held, arrival events are appended to *held in pop order instead of
	// queued.
	Restore(d *snapshot.Decoder, held *[]Event) error
}
