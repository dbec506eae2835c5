// Package engine is the shared event-loop core of the online λ-dispatch
// schedulers (internal/core/flowtime, wflow, speedscale), the preemptive
// references (internal/core/srpt) and the baseline comparators
// (internal/baseline). It owns everything those schedulers used to
// re-implement privately — the deterministic event queue wiring, the
// per-machine run state with the runSeq version guard that invalidates
// completion events of interrupted executions, the completion and
// rejection recording into a sched.Outcome, and the end-of-run sanity audit
// — and drives a Policy that supplies the algorithmic decisions (dispatch,
// service order, preemption, rejection rules, dual bookkeeping).
//
// Preemption is first-class: Core.Preempt stops a running job, returns its
// remaining volume and leaves it re-startable — on the same machine or,
// rescaled, on any other — through the same Start primitive, which accepts
// partial volumes. The audit checks conservation of volume across every
// preemption chain, so a policy cannot silently lose or duplicate work.
//
// The engine is consumed through a Session, a true streaming API: jobs are
// fed in release order, in batches of any size (FeedBatch; Feed is a batch
// of one), simulated time advances as later jobs arrive, and Finish drains
// the remaining events and audits the run (Close is Finish plus the Outcome
// maps). A batch run over a full sched.Instance is just a session fed from
// a slice — the core packages' Run functions are exactly that thin wrapper,
// with outputs bit-identical to the pre-engine implementations.
//
// Determinism: events pop in (Time, Kind, order within the kind) exactly as
// in a batch run, because a session only drains events that can no longer
// be preceded by a future arrival. After feeding a job released at r, any
// queued event at time ≤ r − sched.Eps is safe — later feeds must release at
// ≥ r − Eps, and at equal times arrivals sort after completions (by Kind)
// and after earlier-fed arrivals (by feed order). The drain horizon
// therefore trails the last fed release by Eps and never falls below 0
// (Core.Drained); Finish releases the tail. Every drain reaches that
// horizon, so what is still to come is a function of it and of the rows,
// which is how a restore rebuilds the queue and the pending arrivals
// instead of reading them. Arrivals never enter the event queue: fed in
// release order, they already form a sorted list of compact job indices,
// which the event loop merges with the queue's completions and bookkeeping
// under that same order. Since Kind ranks above the queue's insertion seq,
// an arrival only ever ties against other arrivals, so the list needs no
// seq of its own.
//
// Hot-path discipline (see DESIGN.md): per-job state is dense, indexed by
// the compact feed-order index; ids resolve through sched.IDs, a growable
// direct-lookup table with a map fallback for sparse ID spaces; outcome
// decisions are recorded densely by compact index (sched.OutcomeRecorder)
// and the public Outcome maps materialize once at Close; with a SizeHint the
// session preallocates the job table and outcome arrays so a batch-sized run
// allocates no more than the pre-engine code did.
package engine

import (
	"fmt"
	"math"

	"repro/internal/eventq"
	"repro/internal/sched"
)

// Policy supplies the algorithmic decisions of one online scheduler. The
// engine invokes the hooks from its event loop; the policy reacts by calling
// the Core primitives (Start, Preempt, RejectRunning, RejectPending, Assign,
// Bookkeep). All hooks run on the session's goroutine — policies need no
// internal locking, but their dispatch evaluations may shard across
// internal/dispatch workers as before.
type Policy interface {
	// Bind attaches the policy to the engine core. It is called exactly
	// once, before any event fires.
	Bind(c *Core)
	// OnArrival handles the release of the job with compact index jk at
	// time t: dispatch it, apply arrival-time rejection rules, and start
	// it if its machine is idle.
	OnArrival(t float64, jk int)
	// OnCompletion runs after the engine has recorded the (non-stale)
	// completion of job jk on machine i and marked the machine idle; the
	// engine calls OnIdle immediately afterwards. Use it for per-job
	// bookkeeping (e.g. dual definitive-finish records).
	OnCompletion(t float64, i, jk int)
	// OnIdle runs when machine i goes idle after a completion. Policies
	// start their next pending job here.
	OnIdle(t float64, i int)
	// OnBookkeeping handles events the policy scheduled via Core.Bookkeep
	// (e.g. a job leaving the dual set V_i at its definitive finish).
	OnBookkeeping(t float64, i, jk int)
	// Audit checks policy invariants at the end of a run (after the event
	// queue drains), complementing the engine's own sanity audit.
	Audit() error
	// Close releases policy resources (dispatch worker pools). The engine
	// calls it exactly once, from Session.Finish.
	Close()
}

// MachineState is the engine-owned run state of one machine. Policies read
// it (Running, RunStart, RunVol, RunSpeed) but mutate it only through the
// Core primitives, so the runSeq completion guard can never be bypassed.
type MachineState struct {
	// Running is the compact index of the executing job, -1 when idle.
	Running int32
	// RunSeq is the start-version guard: completion events carry the
	// version of the execution that scheduled them and are dropped as
	// stale when the machine has since been restarted.
	RunSeq int32
	// RunStart is the start time of the current execution.
	RunStart float64
	// RunVol is the processing volume p_ij of the running job (its
	// processing time for unit-speed schedulers).
	RunVol float64
	// RunSpeed is the frozen execution speed (1 for unit-speed).
	RunSpeed float64
}

// Idle reports whether the machine is not executing a job.
func (m *MachineState) Idle() bool { return m.Running == -1 }

// Event-queue implementations selectable via Options.EventQueue. The empty
// string selects the heap (the long-standing default).
const (
	// EventQueueHeap is the 4-ary min-heap (eventq.Queue): O(log n) per
	// operation regardless of the push pattern, the robust choice.
	EventQueueHeap = "heap"
	// EventQueueCalendar is the bucketed ladder queue (eventq.Calendar):
	// O(1) amortized push and near-O(1) pop on release-ordered streams —
	// the engine's access pattern — with the exact same deterministic
	// (Time, Kind, insertion-seq) pop order as the heap.
	EventQueueCalendar = "calendar"
)

// newEventQueue builds the event-queue implementation named by kind.
func newEventQueue(kind string) (eventq.Interface, error) {
	switch kind {
	case "", EventQueueHeap:
		return &eventq.Queue{}, nil
	case EventQueueCalendar:
		return eventq.NewCalendar(), nil
	}
	return nil, fmt.Errorf("engine: unknown event queue %q (want %q or %q)", kind, EventQueueHeap, EventQueueCalendar)
}

// Options configures a session.
type Options struct {
	// Machines is the number of unrelated machines (≥ 1).
	Machines int
	// SizeHint preallocates per-job storage (job table, outcome record)
	// for a run of about this many jobs. Zero is valid: all storage grows
	// on demand, which is the streaming mode of operation. The event heap
	// is never presized: it holds completions and bookkeeping, never
	// arrivals, so it grows with the machines and what they run, not with
	// the jobs.
	SizeHint int
	// EventQueue names the event-queue implementation (EventQueueHeap or
	// EventQueueCalendar; empty selects the heap). Both satisfy the same
	// deterministic pop-order contract, and a snapshot holds no queue (a
	// restore rebuilds it from the machine rows), so the choice is
	// performance-only: outcomes are bit-identical and a snapshot taken
	// under either restores under the other.
	EventQueue string
}

// Core is the engine state a Policy interacts with. It is owned by a
// Session and must not be used after the session closes.
type Core struct {
	pol Policy
	// q holds the completion and bookkeeping events. Arrivals never enter
	// it: a session is fed in release order, so they already form a sorted
	// stream, kept in arr from arrHead on as compact job indices in pop
	// order — (release, index), the release read from the job table — and
	// drain merges the two.
	q       eventq.Interface
	arr     []int32
	arrHead int
	// qNext is the time of q's earliest event, +Inf while q is empty, so
	// step weighs the next arrival against q without a call through the
	// interface. Every push to q is Start's or Bookkeep's, which lower it;
	// every pop is step's, which reads it afresh.
	qNext float64
	mach  []MachineState
	jobs  []sched.Job
	// done[jk] is the fraction of job jk's required work executed so far,
	// accumulated machine-relatively (each segment contributes its executed
	// volume divided by the job's Proc on that machine). It feeds the
	// end-of-run conservation audit: completed jobs must reach exactly 1
	// across their whole preemption chain, and no job may exceed 1.
	done []float64
	ids  sched.IDs
	// rec is the dense recording path of the outcome: decisions are written
	// by compact index into flat arrays inside the event loop; the public
	// map form is materialized exactly once, at Session.Close.
	rec *sched.OutcomeRecorder
	seq int32
	// last is the latest fed release: every later release is at least
	// last − sched.Eps and at least 0, so Drained, the larger of the two,
	// is the horizon every drain reaches.
	last float64
	// tel is the instrumentation bundle (zero value = disabled). It is
	// outcome-neutral.
	tel Telemetry
}

func (c *Core) init(pol Policy, opt Options) error {
	q, err := newEventQueue(opt.EventQueue)
	if err != nil {
		return err
	}
	c.pol = pol
	c.q = q
	c.qNext = math.Inf(1)
	c.mach = make([]MachineState, opt.Machines)
	for i := range c.mach {
		c.mach[i].Running = -1
	}
	c.jobs = make([]sched.Job, 0, opt.SizeHint)
	c.done = make([]float64, 0, opt.SizeHint)
	c.ids.Reset(opt.SizeHint)
	c.rec = sched.NewOutcomeRecorder(opt.SizeHint)
	return nil
}

// Machines returns the machine count.
func (c *Core) Machines() int { return len(c.mach) }

// Machine returns the run state of machine i.
func (c *Core) Machine(i int) *MachineState { return &c.mach[i] }

// NumJobs returns the number of jobs fed so far.
func (c *Core) NumJobs() int { return len(c.jobs) }

// Job returns the job with compact index jk. The pointer stays valid for
// the life of the session (the job table grows by append, but policies must
// not retain pointers across Feed calls; re-fetch by index instead).
func (c *Core) Job(jk int) *sched.Job { return &c.jobs[jk] }

// ID returns the external id of the job with compact index jk.
func (c *Core) ID(jk int) int { return c.jobs[jk].ID }

// IndexOf returns the compact index of the job with external id, or -1.
func (c *Core) IndexOf(id int) int { return c.ids.Of(id) }

// Assign records the dispatch of job jk to machine i in the outcome.
func (c *Core) Assign(jk, i int) { c.rec.Assign(jk, i) }

// Decided reports whether job jk is completed or rejected, and the machine
// its outcome names (sched.NoMachine if none).
func (c *Core) Decided(jk int) (decided bool, machine int) {
	return c.rec.State(jk) != sched.JobOpen, int(c.rec.Machine(jk))
}

// Drained is the drain horizon: every arrival, completion and bookkeeping
// event at or before it has been handled, and none after it has. A
// restore rebuilds what is still to come from it: the arrivals released
// after it, one completion per running machine, and (a policy's LoadState)
// the bookkeeping it scheduled past it.
func (c *Core) Drained() float64 { return max(c.last-sched.Eps, 0) }

// Start begins executing job jk on machine i at time t with the given
// processing volume and (frozen) speed, bumping the machine's start version
// and scheduling the matching completion event at t + vol/speed.
//
// Start is the resume path of the Preempt primitive: vol may be any partial
// volume, so a job preempted with remaining volume r resumes with
// Start(i', t', jk, r', speed) — on the same machine (r' = r) or, after
// rescaling to the new machine's processing time (r' = r/p_ij·p_i'j), on any
// other. Volumes are expressed in the units of Job.Proc on the target
// machine; the conservation audit holds every preemption chain to exactly
// one job's worth of work. The machine must be idle (Preempt or a
// completion first) — starting over a running execution would orphan its
// partial interval.
func (c *Core) Start(i int, t float64, jk int, vol, speed float64) {
	m := &c.mach[i]
	m.Running = int32(jk)
	m.RunStart = t
	m.RunVol = vol
	m.RunSpeed = speed
	c.seq++
	m.RunSeq = c.seq
	c.pushCompletion(i)
}

// pushCompletion queues the completion of machine i's execution, at its
// start plus its volume over its speed and versioned by its RunSeq.
func (c *Core) pushCompletion(i int) {
	m := &c.mach[i]
	end := m.RunStart + m.RunVol/m.RunSpeed
	c.q.Push(eventq.Event{
		Time: end, Kind: eventq.KindCompletion,
		Job: m.Running, Machine: int32(i), Version: m.RunSeq,
	})
	c.qNext = min(c.qNext, end)
}

// Preempt stops machine i's execution at time t without deciding the job's
// fate: the partial interval (if long enough to matter) is recorded, the
// machine is marked idle, the pending completion event goes stale via the
// runSeq version guard, and the interrupted job's compact index and
// remaining volume (in machine-i Proc units) are returned. The job stays
// live — the policy re-starts it later with the remaining volume on this
// machine, or on any other after rescaling (see Start). Preempt on an idle
// machine is a policy bug and panics via the jobs[-1] bounds check.
func (c *Core) Preempt(i int, t float64) (jk int, remVol float64) {
	m := &c.mach[i]
	jk = int(m.Running)
	executed := (t - m.RunStart) * m.RunSpeed
	remVol = m.RunVol - executed
	if remVol < 0 {
		remVol = 0
	}
	if executed > 0 {
		// Conservation tracks true execution even when the sliver below is
		// too short to record as an interval.
		c.done[jk] += executed / c.jobs[jk].Proc[i]
	}
	if t-m.RunStart > sched.Eps {
		c.rec.AppendInterval(sched.Interval{
			Job: c.jobs[jk].ID, Machine: i, Start: m.RunStart, End: t, Speed: m.RunSpeed,
		})
	}
	m.Running = -1
	return jk, remVol
}

// RejectRunning interrupts machine i's execution at time t: the partial
// interval (if long enough to matter) and the rejection are recorded, the
// machine is marked idle, and the interrupted job's compact index and
// remaining volume are returned. It is Preempt followed by recording the
// rejection — the pending completion event goes stale via the version
// guard. The policy decides what (if anything) runs next.
func (c *Core) RejectRunning(i int, t float64) (jk int, remVol float64) {
	jk, remVol = c.Preempt(i, t)
	c.rec.Reject(jk, t)
	c.tel.Rejected.Inc()
	return jk, remVol
}

// RejectPending records the rejection at time t of job jk that never
// started (e.g. flowtime's Rule 2 shedding the largest pending job).
func (c *Core) RejectPending(jk int, t float64) {
	c.rec.Reject(jk, t)
	c.tel.Rejected.Inc()
}

// Bookkeep schedules a policy bookkeeping event at time t, delivered to
// Policy.OnBookkeeping when the simulation reaches t.
func (c *Core) Bookkeep(t float64, i, jk int) {
	c.q.Push(eventq.Event{Time: t, Kind: eventq.KindBookkeeping, Job: int32(jk), Machine: int32(i)})
	c.qNext = min(c.qNext, t)
}

// pushArrival queues the arrival of job jk on the pending list.
func (c *Core) pushArrival(jk int) {
	if c.arrHead > 0 && 2*c.arrHead >= len(c.arr) {
		// Drop the consumed prefix once it is half the list: the list then
		// stays within a small multiple of the arrivals pending.
		c.arr = c.arr[:copy(c.arr, c.arr[c.arrHead:])]
		c.arrHead = 0
	}
	c.arr = append(c.arr, int32(jk))
	// A release may sit up to sched.Eps below the latest one: move it back
	// past the larger releases. Equal ones keep feed order, which is index
	// order.
	r := c.jobs[jk].Release
	for k := len(c.arr) - 1; k > c.arrHead && c.jobs[c.arr[k-1]].Release > r; k-- {
		c.arr[k], c.arr[k-1] = c.arr[k-1], c.arr[k]
	}
}

// arrivals returns the compact indices of the pending arrivals in pop order.
func (c *Core) arrivals() []int32 { return c.arr[c.arrHead:] }

// step handles the next event at time ≤ horizon and reports whether there
// was one. The next arrival goes first only if its release is strictly
// below q's next event time: at equal times completions and bookkeeping
// pop first, as their kinds order them in one queue. qNext is +Inf both
// for an empty q and for one whose next event is at +Inf; the Len calls,
// reached only when the comparison before them fails, tell the two apart.
func (c *Core) step(horizon float64) bool {
	if c.arrHead < len(c.arr) {
		jk := int(c.arr[c.arrHead])
		if t := c.jobs[jk].Release; t <= horizon && (t < c.qNext || c.q.Len() == 0) {
			if c.arrHead++; c.arrHead == len(c.arr) {
				c.arr, c.arrHead = c.arr[:0], 0
			}
			c.pol.OnArrival(t, jk)
			return true
		}
	}
	if c.qNext > horizon || c.q.Len() == 0 {
		return false
	}
	e := c.q.Pop()
	c.peekNext()
	c.handle(e)
	return true
}

// peekNext reads qNext afresh from q.
func (c *Core) peekNext() {
	c.qNext = math.Inf(1)
	if c.q.Len() > 0 {
		c.qNext = c.q.Peek().Time
	}
}

// handle routes one event popped from q: a completion or bookkeeping.
func (c *Core) handle(e eventq.Event) {
	switch e.Kind {
	case eventq.KindCompletion:
		m := &c.mach[e.Machine]
		if m.Running != e.Job || m.RunSeq != e.Version {
			return // stale: the execution was interrupted by a rejection
		}
		c.rec.AppendInterval(sched.Interval{
			Job: c.jobs[e.Job].ID, Machine: int(e.Machine), Start: m.RunStart, End: e.Time, Speed: m.RunSpeed,
		})
		c.rec.Complete(int(e.Job), e.Time)
		c.tel.Completed.Inc()
		// The started volume ran to completion; for a never-preempted job
		// vol is an exact copy of Proc, so done lands on exactly 1.
		c.done[e.Job] += m.RunVol / c.jobs[e.Job].Proc[e.Machine]
		m.Running = -1
		c.pol.OnCompletion(e.Time, int(e.Machine), int(e.Job))
		c.pol.OnIdle(e.Time, int(e.Machine))
	case eventq.KindBookkeeping:
		c.pol.OnBookkeeping(e.Time, int(e.Machine), int(e.Job))
	}
}

// volAuditTol is the relative tolerance of the conservation audit. A
// never-preempted job lands on exactly 1; a preemption chain accumulates one
// rounding error per segment plus one per cross-machine rescale, all of
// order 1 ulp, so even thousand-segment chains sit far inside 1e-6.
const volAuditTol = 1e-6

// audit checks the engine-owned end-of-run invariants.
func (c *Core) audit() error {
	for i := range c.mach {
		if c.mach[i].Running != -1 {
			return fmt.Errorf("engine: internal invariant violated: machine %d still busy at end of run", i)
		}
	}
	if got := c.rec.CompletedCount() + c.rec.RejectedCount(); got != len(c.jobs) {
		return fmt.Errorf("engine: internal invariant violated: %d jobs accounted, want %d", got, len(c.jobs))
	}
	// Conservation of volume across preemption chains: every completed job
	// received exactly its processing requirement (each segment counted
	// relative to the machine it ran on), and no job — rejected ones
	// included — was over-served. The d == 1 fast path keeps the audit a
	// float compare per job on the non-preemptive schedulers.
	for jk := range c.jobs {
		d := c.done[jk]
		if d == 1 {
			continue
		}
		if c.rec.State(jk) == sched.JobCompleted {
			if math.Abs(d-1) > volAuditTol {
				return fmt.Errorf("engine: internal invariant violated: job %d completed with %v of its volume executed across its preemption chain",
					c.jobs[jk].ID, d)
			}
		} else if d > 1+volAuditTol {
			return fmt.Errorf("engine: internal invariant violated: job %d over-served (%v of its volume) before rejection", c.jobs[jk].ID, d)
		}
	}
	return nil
}
