package eventq

// Interface is the seam between the engine and an event-queue
// implementation. Both Queue (the 4-ary heap) and Calendar (the bucketed
// ladder queue) satisfy it with the exact same observable contract: events
// pop in (Time, Kind, insertion-seq) order, so a run drives either to
// bit-identical outcomes.
//
// The seam is deliberately narrow — exactly the surface the engine consumes —
// so implementations stay swappable behind engine.Options.EventQueue without
// the engine knowing which one it drives. A queue is never snapshotted: the
// engine rebuilds its events on restore from the state that scheduled them.
type Interface interface {
	// Push inserts an event, assigning the next insertion sequence.
	Push(e Event)
	// Pop removes and returns the earliest event; panics when empty.
	Pop() Event
	// Peek returns the earliest event without removing it; panics when
	// empty. Implementations may advance internal cursors (a calendar skips
	// exhausted rungs) but the observable event sequence never changes.
	Peek() Event
	// Len reports the number of pending events.
	Len() int
}
