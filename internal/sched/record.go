package sched

import "slices"

// Decision states of a job slot in an OutcomeRecorder.
const (
	// JobOpen marks a job that is fed but not yet completed or rejected.
	JobOpen uint8 = iota
	// JobCompleted marks a served job; When holds its completion time.
	JobCompleted
	// JobRejected marks a rejected job; When holds its rejection time.
	JobRejected
)

// NoMachine is the Machine value of a job that was never dispatched.
const NoMachine int32 = -1

// OutcomeRecorder is the dense, slice-backed recording path of an Outcome.
// The engine's event loop records every decision by compact (feed-order)
// job index into flat arrays — one state byte, one timestamp and one
// machine per job — so the hot path never touches a hash map. The public
// map form of Outcome is materialized exactly once, at Session.Close, via
// Finalize.
//
// The zero value is ready to use; NewOutcomeRecorder preallocates for a
// known run size. All methods are unchecked against double decisions: the
// engine's runSeq guard already guarantees a job is completed or rejected
// at most once, and the snapshot restore path re-validates states as it
// decodes.
type OutcomeRecorder struct {
	intervals []Interval
	state     []uint8
	when      []float64
	machine   []int32
	completed int
	rejected  int
}

// NewOutcomeRecorder returns a recorder with storage preallocated for a run
// of about hint jobs. hint zero is valid: storage grows on demand.
func NewOutcomeRecorder(hint int) *OutcomeRecorder {
	return &OutcomeRecorder{
		intervals: make([]Interval, 0, hint),
		state:     make([]uint8, 0, hint),
		when:      make([]float64, 0, hint),
		machine:   make([]int32, 0, hint),
	}
}

// Len reports the number of job slots recorded so far.
func (r *OutcomeRecorder) Len() int { return len(r.state) }

// Grow reserves capacity for n additional job slots.
func (r *OutcomeRecorder) Grow(n int) {
	r.state = slices.Grow(r.state, n)
	r.when = slices.Grow(r.when, n)
	r.machine = slices.Grow(r.machine, n)
}

// Add appends one open, unassigned job slot and returns its index. Slots
// are appended in feed order, so the slot index is the engine's compact
// job index.
func (r *OutcomeRecorder) Add() int {
	jk := len(r.state)
	r.state = append(r.state, JobOpen)
	r.when = append(r.when, 0)
	r.machine = append(r.machine, NoMachine)
	return jk
}

// Complete records the completion of job jk at time t.
func (r *OutcomeRecorder) Complete(jk int, t float64) {
	r.state[jk] = JobCompleted
	r.when[jk] = t
	r.completed++
}

// Reject records the rejection of job jk at time t.
func (r *OutcomeRecorder) Reject(jk int, t float64) {
	r.state[jk] = JobRejected
	r.when[jk] = t
	r.rejected++
}

// Assign records the dispatch of job jk to machine i.
func (r *OutcomeRecorder) Assign(jk, i int) { r.machine[jk] = int32(i) }

// AppendInterval appends one executed interval to the schedule record.
func (r *OutcomeRecorder) AppendInterval(iv Interval) {
	r.intervals = append(r.intervals, iv)
}

// GrowIntervals reserves capacity for n additional intervals.
func (r *OutcomeRecorder) GrowIntervals(n int) {
	r.intervals = slices.Grow(r.intervals, n)
}

// Intervals exposes the interval log (read-only; owned by the recorder).
func (r *OutcomeRecorder) Intervals() []Interval { return r.intervals }

// State reports the decision state of job jk (JobOpen/JobCompleted/
// JobRejected).
func (r *OutcomeRecorder) State(jk int) uint8 { return r.state[jk] }

// When reports the completion or rejection time of job jk; meaningless
// while the job is still open.
func (r *OutcomeRecorder) When(jk int) float64 { return r.when[jk] }

// Machine reports the machine job jk was dispatched to, NoMachine if none.
func (r *OutcomeRecorder) Machine(jk int) int32 { return r.machine[jk] }

// CompletedCount reports the number of completed jobs.
func (r *OutcomeRecorder) CompletedCount() int { return r.completed }

// RejectedCount reports the number of rejected jobs.
func (r *OutcomeRecorder) RejectedCount() int { return r.rejected }

// Finalize materializes the public map form of the outcome, translating
// each slot index through idOf (the engine's compact-index → external-id
// mapping). The interval log is handed over, not copied. Finalize is the
// single point where per-job map inserts happen — once per run, with maps
// pre-sized exactly, instead of once per event inside the loop.
func (r *OutcomeRecorder) Finalize(idOf func(jk int) int) *Outcome {
	out := &Outcome{
		Intervals: r.intervals,
		Completed: make(map[int]float64, r.completed),
		Rejected:  make(map[int]float64, r.rejected),
		Assigned:  make(map[int]int, len(r.state)),
	}
	for jk, st := range r.state {
		id := idOf(jk)
		switch st {
		case JobCompleted:
			out.Completed[id] = r.when[jk]
		case JobRejected:
			out.Rejected[id] = r.when[jk]
		}
		if m := r.machine[jk]; m != NoMachine {
			out.Assigned[id] = int(m)
		}
	}
	return out
}
