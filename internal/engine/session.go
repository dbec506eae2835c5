package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/sched"
	"repro/internal/snapshot"
)

// ErrClosed is returned by session operations after Finish or Close.
var ErrClosed = errors.New("engine: session closed")

// Session is the streaming front-end of the engine: an online run that
// accepts jobs incrementally. Jobs must be fed in non-decreasing release
// order (within sched.Eps, matching Instance.Validate's tolerance); the
// simulation advances as far as the fed releases allow, so machine state,
// completions and rejections materialize while the stream is still open.
//
// A Session is not safe for concurrent use; shard across independent
// sessions (see Shard) to scale out.
type Session struct {
	core   Core
	closed bool // Finish ran: the stream is over
	// spent is set once Close has handed out the Outcome, or once Finish
	// failed its audits: there is no outcome left to hand out.
	spent bool
	// pol is the policy section SnapshotSize encoded, with its CRC32-C;
	// polFor is one more than the job count it was encoded at, and 0 once
	// SnapshotInto has used it.
	pol    snapshot.Encoder
	polSum uint32
	polFor int
}

// NewSession starts a streaming run of the given policy. The policy must be
// freshly constructed for this session; it is bound to the engine core
// before the first event and closed exactly once, by Session.Finish (which
// Close runs).
func NewSession(pol Policy, opt Options) (*Session, error) {
	if opt.Machines <= 0 {
		return nil, fmt.Errorf("engine: session needs at least one machine, got %d", opt.Machines)
	}
	s := &Session{}
	if err := s.core.init(pol, opt); err != nil {
		return nil, err
	}
	pol.Bind(&s.core)
	return s, nil
}

// Feed accepts the next job of the stream: it is FeedBatch of that one job.
// Validation errors leave the session usable; the offending job is simply
// not admitted.
func (s *Session) Feed(j sched.Job) error { return s.FeedBatch([]sched.Job{j}) }

// feedChunk bounds how many jobs FeedBatch admits between drains. Arrivals
// wait in the session's sorted list, not in the event heap, so the cadence
// no longer sets the heap's depth. What it still sets is how far a batch's
// dispatches trail the copying of its jobs (a job dispatched long after it
// was staged is cold in cache) and how long the arrival list grows. In
// alternating 8-second runs on a 2-core Xeon, five rounds, 16 (engine_batch
// median 1.32M jobs/s) tied 64 (1.33M) and beat 256 (1.30M) and one drain
// per batch (1.28M, whose ack_p50_ms rose from 65 to 75 ms); wire_flood
// could not tell the four apart.
const feedChunk = 16

// FeedBatch accepts the next jobs of the stream in one call. Each job is
// validated against the same structural rules as sched.Instance.Validate
// (machine-count-many positive finite processing times, positive weight,
// sane release and deadline, unique id, release order within Eps, checked
// against the running watermark) and the AdvanceTo floor. Per-job storage
// grows once for the whole batch, and the simulation advances through every
// event that can no longer be preceded by a future arrival once per
// feedChunk admitted jobs and once at the end of the batch.
//
// FeedBatch is observably identical however the stream is cut into
// batches, down to one job per call: the event pop order depends only on
// the (Time, Kind, order within the kind) total order, arrivals keep their
// relative feed order, and kinds never compare by seq across each other — so
// postponing a drain to any later boundary replays exactly the same event
// sequence, and the final Outcome is bit-identical (pinned by the
// batch-split equivalence tests).
//
// On a validation error the jobs before the offending one remain admitted
// and simulated — exactly the state a Feed loop would have left — and the
// session stays usable; the offending job and the rest of the batch are not.
// The jobs slice is copied, never retained.
func (s *Session) FeedBatch(jobs []sched.Job) error {
	if s.closed {
		return ErrClosed
	}
	if len(jobs) == 0 {
		return nil
	}
	c := &s.core
	c.jobs = slices.Grow(c.jobs, len(jobs))
	c.done = slices.Grow(c.done, len(jobs))
	c.rec.Grow(len(jobs))
	var err error
	sinceDrain, admitted := 0, 0
	for k := range jobs {
		j := &jobs[k]
		if verr := sched.ValidateJob(j, len(c.mach), c.last); verr != nil {
			err = fmt.Errorf("engine: %w", verr)
			break
		}
		if j.Release < c.floor {
			err = fmt.Errorf("engine: job %d released at %v before the AdvanceTo watermark %v", j.ID, j.Release, c.floor)
			break
		}
		jk, ok := c.ids.Add(j.ID)
		if !ok {
			err = fmt.Errorf("engine: duplicate job id %d", j.ID)
			break
		}
		c.jobs = append(c.jobs, *j)
		c.done = append(c.done, 0)
		c.rec.Add()
		c.pushArrival(jk)
		if j.Release > c.last {
			c.last = j.Release
		}
		admitted++
		if sinceDrain++; sinceDrain >= feedChunk {
			s.drain(c.Drained())
			sinceDrain = 0
		}
	}
	c.tel.Fed.Add(int64(admitted))
	s.drain(c.Drained())
	return err
}

// AdvanceTo declares that no job released before t will ever be fed and
// advances the simulation through every event at time ≤ t. Subsequent Feed
// calls with a release below t fail.
func (s *Session) AdvanceTo(t float64) error {
	if s.closed {
		return ErrClosed
	}
	if math.IsNaN(t) {
		return errors.New("engine: AdvanceTo(NaN)")
	}
	c := &s.core
	c.floor = max(c.floor, t)
	s.drain(c.Drained())
	return nil
}

// Fed reports the number of jobs admitted so far (valid after Close too).
// Together with a deterministic trace it pins the resume point of a restored
// snapshot: skipping Fed() jobs of the replayed stream continues exactly
// where the donor session stopped.
func (s *Session) Fed() int { return len(s.core.jobs) }

// Pending reports the number of jobs admitted but not yet completed or
// rejected — the in-flight backlog (queued arrivals, dispatched-but-waiting
// jobs and running jobs). It is the session-level queue-depth signal a
// front-end can throttle or pre-reject on before dispatch (see ROADMAP's
// backpressure item); like every session method it must be called from the
// goroutine that owns the session.
func (s *Session) Pending() int {
	c := &s.core
	return len(c.jobs) - c.rec.CompletedCount() - c.rec.RejectedCount()
}

// EachFed visits every job admitted so far, in feed order. The visited Job
// is the session's copy — read it, don't retain or mutate it. A network
// front door uses this to rebuild its duplicate-suppression ledger from a
// restored snapshot (the session's job table is the authoritative record of
// what was fed). Like every session method it must be called from the
// goroutine that owns the session — for sessions behind a Shard, only after
// Quiesce or Wait.
func (s *Session) EachFed(f func(j *sched.Job)) {
	for k := range s.core.jobs {
		f(&s.core.jobs[k])
	}
}

// Finish ends the stream: the remaining events drain (every fed job runs to
// completion or rejection), the policy releases its resources, and both the
// policy and engine invariants are audited. It is Close without building the
// Outcome maps: after Finish every slot is decided, and a caller that folds
// the run itself reads the dense record in place through Decision and
// Intervals. Close may still follow to materialize the Outcome.
func (s *Session) Finish() error {
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	c := &s.core
	s.drain(math.Inf(1))
	c.pol.Close()
	err := c.pol.Audit()
	if err == nil {
		err = c.audit()
	}
	s.spent = err != nil
	return err
}

// Close ends the stream (Finish, unless it already ran) and returns the
// outcome: exactly what the online run did, in the same form as a batch run.
// A second Close fails with ErrClosed.
func (s *Session) Close() (*sched.Outcome, error) {
	if s.spent {
		return nil, ErrClosed
	}
	if !s.closed {
		if err := s.Finish(); err != nil {
			return nil, err
		}
	}
	s.spent = true
	// Materialize the public map form exactly once, after the audits: the
	// whole run recorded densely, so this is the only point where per-job
	// map inserts happen.
	c := &s.core
	return c.rec.Finalize(func(jk int) int { return c.jobs[jk].ID }), nil
}

// Decision reports slot k of the session (feed order, 0 ≤ k < Fed()): the
// session's copy of the job — read it, don't retain or mutate it — its
// decision state (sched.JobOpen, JobCompleted or JobRejected) and its
// completion or rejection time. After Finish every slot is decided. Like
// every session method it must be called from the goroutine that owns the
// session.
func (s *Session) Decision(k int) (j *sched.Job, state uint8, t float64) {
	c := &s.core
	return &c.jobs[k], c.rec.State(k), c.rec.When(k)
}

// Intervals exposes the executions recorded so far, read-only: the schedule
// a finished session ran, including the partial executions of rejected jobs.
func (s *Session) Intervals() []sched.Interval { return s.core.rec.Intervals() }

// drain handles every pending event at time ≤ horizon, arrivals and queued
// events merged in (Time, Kind, order within the kind) order (Core.step).
// Events tied at the horizon are safe: a future arrival at the same instant
// sorts after them (larger Kind, or later in feed order), exactly as in a
// batch run.
//
// With telemetry attached (tel.DrainNS non-nil) the drain is timed and the
// event count, backlog and per-drain latency are recorded; the untimed loop
// is selected by one predictable branch.
func (s *Session) drain(horizon float64) {
	c := &s.core
	if c.tel.DrainNS == nil {
		for c.step(horizon) {
		}
		return
	}
	start := time.Now()
	n := 0
	for c.step(horizon) {
		n++
	}
	c.tel.DrainNS.Record(float64(time.Since(start)))
	c.tel.Events.Add(int64(n))
	c.tel.Depth.Set(float64(c.q.Len() + len(c.arrivals())))
}
