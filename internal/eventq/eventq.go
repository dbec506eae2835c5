// Package eventq provides the deterministic event priority queue that drives
// the online event loops of every scheduler in this repository.
//
// Events are ordered by (Time, Kind, Seq): earlier times first, then by kind
// (so that, e.g., completions at time t are handled before arrivals at t),
// then by insertion sequence for full determinism. Stale events — completion
// events for executions that were interrupted by a rejection — are handled by
// the callers via version counters carried in the payload.
//
// The queue is a hand-rolled 4-ary min-heap: compared to container/heap it
// avoids the interface boxing that allocates on every Push, halves the sift
// depth, and keeps the hot comparison inlineable.
package eventq

import "slices"

// Kind orders simultaneous events. Lower kinds pop first.
type Kind int8

const (
	// KindCompletion fires when a machine finishes its running job.
	KindCompletion Kind = iota
	// KindBookkeeping fires for internal accounting (e.g. a job leaving
	// the dual set V_i at its definitive-finish time).
	KindBookkeeping
	// KindArrival fires when a job is released.
	KindArrival
)

// Event is one timed occurrence. Payload fields are interpreted by callers.
// The struct is exactly 32 bytes so heap sifts move half as much memory as
// the naive int-field layout.
type Event struct {
	Time float64
	// ord packs (Kind, insertion sequence) into one word, so the tie-break
	// after Time is a single integer compare. Maintained by Push.
	ord     uint64
	Job     int32 // job id or compact job index, or -1
	Machine int32 // machine index, or -1
	Version int32 // start-version guard for completion events
	Kind    Kind
}

// ordShift places Kind above the 56-bit insertion-sequence space.
const ordShift = 56

// less orders events by (Time, Kind, seq), the latter two via ord.
func less(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.ord < b.ord
}

// Queue is a deterministic min-heap of events. The zero value is ready to
// use.
type Queue struct {
	h   []Event
	seq uint64
}

// arity is the heap fan-out: child c of node i sits at i*arity+1+c.
const arity = 4

// Push inserts an event, stamping it with the next insertion sequence.
func (q *Queue) Push(e Event) {
	e.ord = uint64(e.Kind)<<ordShift | q.seq
	q.seq++
	q.h = append(q.h, e)
	q.siftUp(len(q.h) - 1)
}

// Grow ensures capacity for n additional events without reallocation. It
// grows the way append does, so a queue that keeps growing past what its
// callers reserve still reallocates only O(log n) times.
func (q *Queue) Grow(n int) { q.h = slices.Grow(q.h, n) }

// Pop removes and returns the earliest event. It panics on an empty queue;
// guard with Len.
func (q *Queue) Pop() Event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.h = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() Event { return q.h[0] }

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

func (q *Queue) siftUp(i int) {
	h := q.h
	e := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !less(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (q *Queue) siftDown(i int) {
	h := q.h
	n := len(h)
	e := h[i]
	for {
		c := i*arity + 1
		if c >= n {
			break
		}
		end := c + arity
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
