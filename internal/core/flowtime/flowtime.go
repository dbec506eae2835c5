// Package flowtime implements the paper's §2 algorithm: online non-preemptive
// total flow-time minimization on unrelated machines with rejections
// (Theorem 1 of Lucarelli et al., SPAA 2018).
//
// The algorithm is 2((1+ε)/ε)²-competitive while rejecting at most a 2ε
// fraction of the jobs. Its three policies:
//
//   - Dispatching: at the arrival of job j, compute for every machine i
//     λ_ij = p_ij/ε + Σ_{ℓ⪯j} p_iℓ + |{ℓ≻j}|·p_ij over the pending jobs of i
//     (in shortest-processing-time order, j hypothetically inserted) and
//     dispatch j to argmin_i λ_ij.
//   - Scheduling: whenever a machine is idle, run the pending job that
//     precedes all others in SPT order; never preempt.
//   - Rejection Rule 1: the running job k is interrupted and rejected when
//     ⌈1/ε⌉ jobs have been dispatched to its machine during k's execution.
//   - Rejection Rule 2: a per-machine counter of dispatches rejects the
//     pending job with the largest processing time each time it reaches
//     ⌈1+1/ε⌉, then resets.
//
// The package also records the dual objects of the paper's analysis — λ_j,
// the definitive-finish times C̃_j, and the step functions behind
// β_i(t) = ε/(1+ε)²·(|U_i(t)|+|V_i(t)|) — so tests can verify Lemma 4
// (dual feasibility) and the end-to-end competitive bound numerically.
//
// The event-loop mechanics (queue wiring, run-state version guards, outcome
// recording, end-of-run audit) live in internal/engine; this package is the
// engine Policy carrying the three rules above. Run executes a batch
// instance; Session (see session.go) streams jobs online with bit-identical
// outcomes. Hot-path layout as before: per-job state lives in dense slices
// indexed by the compact feed-order index, and the machine-selection argmin
// is a serial scan unless Options.ParallelDispatch asks for an
// internal/dispatch worker pool, with outputs bit-identical either way.
package flowtime

import (
	"fmt"
	"math"

	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/ostree"
	"repro/internal/sched"
)

// Options configures a run.
type Options struct {
	// Epsilon is the rejection parameter ε ∈ (0,1): the algorithm rejects
	// at most a 2ε fraction of jobs.
	Epsilon float64
	// DisableRule1 / DisableRule2 switch off the corresponding rejection
	// rule (ablation experiments E11). With both disabled the algorithm
	// degenerates to the dispatch rule alone and all guarantees are void.
	DisableRule1 bool
	DisableRule2 bool
	// TrackDual enables recording of λ_j, C̃_j and the β_i(t) step
	// functions (small constant overhead per event).
	TrackDual bool
	// ParallelDispatch sets the number of workers sharding the arrival-time
	// argmin_i λ_ij: 0 or 1 scans serially, ≥ 2 starts a worker pool of
	// that size. The choice never changes the output (see
	// internal/dispatch).
	ParallelDispatch int
	// SizeHint preallocates per-job storage for a stream of about this many
	// jobs (see engine.Options.SizeHint). Zero is valid — storage grows on
	// demand — and the hint never changes outcomes. Batch Run overrides it
	// with the instance's exact job count.
	SizeHint int
	// EventQueue names the engine's event-queue implementation
	// (engine.EventQueueHeap or engine.EventQueueCalendar; empty selects the
	// heap). Performance-only: outcomes are bit-identical either way.
	EventQueue string
}

func (o Options) validate() error {
	if !(o.Epsilon > 0 && o.Epsilon < 1) {
		return fmt.Errorf("flowtime: epsilon must be in (0,1), got %v", o.Epsilon)
	}
	return nil
}

// Rule1Threshold is the dispatch count during one execution that triggers
// Rule 1: ⌈1/ε⌉.
func (o Options) Rule1Threshold() int {
	return int(math.Ceil(1/o.Epsilon - 1e-12))
}

// Rule2Threshold is the dispatch count that triggers Rule 2: ⌈1+1/ε⌉.
func (o Options) Rule2Threshold() int {
	return int(math.Ceil(1 + 1/o.Epsilon - 1e-12))
}

// Result is the audited output of a run.
type Result struct {
	Outcome *sched.Outcome
	// Dispatches counts jobs dispatched (== number of jobs).
	Dispatches int
	// Rule1Rejections / Rule2Rejections split the rejection count by rule.
	Rule1Rejections int
	Rule2Rejections int
	// Dual carries the analysis bookkeeping when Options.TrackDual.
	Dual *DualReport
}

// machine is the per-machine policy state (the engine owns the run state).
type machine struct {
	pending *ostree.Flat // dispatched, not yet started (U_i \ {running})

	runVictims int // Rule 1 counter v_k for the running job
	counter    int // Rule 2 counter c_i

	// remnantAcc accumulates the Rule 1 remnants q_ik(r_{j_k}) on this
	// machine. A job's C̃ correction is remnantAcc(at finish) minus its
	// dispatch-time snapshot: exactly Σ_{k∈D_j} q_ik(r_{j_k}), O(1) per
	// event instead of an O(|U_i|) scan per rejection.
	remnantAcc float64

	// dual occupancy |U_i(t)| + |V_i(t)| bookkeeping
	occ      int
	occLast  float64
	occInt   float64
	bpTimes  []float64
	bpValues []int
}

func (m *machine) advance(t float64) {
	if t > m.occLast {
		m.occInt += float64(m.occ) * (t - m.occLast)
		m.occLast = t
	}
}

func (m *machine) occChange(t float64, delta int, track bool) {
	m.advance(t)
	m.occ += delta
	if track {
		m.bpTimes = append(m.bpTimes, t)
		m.bpValues = append(m.bpValues, m.occ)
	}
}

// policy implements engine.Policy with the §2 dispatch and rejection rules.
type policy struct {
	c    *engine.Core
	opt  Options
	res  *Result
	mach []machine
	// Dense per-job state, indexed by compact job index; grows as jobs are
	// fed. snap holds each dispatched job's snapshot of its machine's
	// remnantAcc (see machine.remnantAcc); ctilde the definitive-finish
	// times; lambda the dual λ_j assignments.
	snap   []float64
	ctilde []float64
	lambda []float64
	pool   *dispatch.Pool
	curJob *sched.Job        // job under dispatch, read by the argmin eval
	evalFn func(int) float64 // evalCur bound once per run (a method value allocates)
	r1, r2 int
	// track mirrors opt.TrackDual: when false, the λ/C̃/occupancy dual
	// bookkeeping — including the per-job C̃ exit events, a third of all
	// heap traffic — is skipped entirely. The bookkeeping never influences
	// a scheduling decision, so outcomes are identical either way.
	track bool
}

// newPolicy builds the policy for the given machine count; hint preallocates
// per-job state for a batch run of about that many jobs.
func newPolicy(opt Options, machines, hint int) *policy {
	p := &policy{
		opt:   opt,
		res:   &Result{},
		r1:    opt.Rule1Threshold(),
		r2:    opt.Rule2Threshold(),
		track: opt.TrackDual,
	}
	if p.track {
		p.snap = make([]float64, 0, hint)
		p.ctilde = make([]float64, 0, hint)
		p.lambda = make([]float64, 0, hint)
	}
	p.mach = make([]machine, machines)
	for i := range p.mach {
		p.mach[i] = machine{pending: ostree.NewFlatHint(pendingHint(hint, machines))}
	}
	p.pool = dispatch.NewPool(opt.ParallelDispatch, machines)
	p.evalFn = p.evalCur
	return p
}

// pendingHint sizes a per-machine pending index for a run of about hint jobs
// on the given machine count: the expected per-machine share, capped so a
// huge run hint cannot balloon the presized arenas (pending queues drain;
// their peak is load-, not run-length-bound).
func pendingHint(hint, machines int) int {
	if hint <= 0 || machines <= 0 {
		return 0
	}
	h := hint / machines
	if h > 2048 {
		h = 2048
	}
	return h
}

func (p *policy) Bind(c *engine.Core) { p.c = c }

func (p *policy) Close() { p.pool.Close() }

func (p *policy) Audit() error {
	for i := range p.mach {
		m := &p.mach[i]
		if m.occ != 0 {
			return fmt.Errorf("flowtime: internal invariant violated: machine %d dual occupancy %d at end of run", i, m.occ)
		}
		if m.pending.Len() != 0 {
			return fmt.Errorf("flowtime: internal invariant violated: machine %d still has pending jobs at end of run", i)
		}
	}
	return nil
}

// growDual extends the dense dual slices to cover compact index jk.
func (p *policy) growDual(jk int) {
	for len(p.snap) <= jk {
		p.snap = append(p.snap, 0)
		p.ctilde = append(p.ctilde, 0)
		p.lambda = append(p.lambda, 0)
	}
}

func (p *policy) key(j *sched.Job, i int) ostree.Key {
	return ostree.Key{P: j.Proc[i], Release: j.Release, ID: j.ID}
}

// lambdaFor evaluates λ_ij for a hypothetical dispatch of j to machine i. It
// only reads per-machine state, so the dispatch pool may call it
// concurrently for distinct machines.
func (p *policy) lambdaFor(j *sched.Job, i int) float64 {
	pp := j.Proc[i]
	_, sumBefore, after := p.mach[i].pending.RankStats(p.key(j, i))
	return pp/p.opt.Epsilon + (sumBefore + pp) + float64(after)*pp
}

// evalCur adapts lambdaFor to the dispatch pool's eval signature for the job
// stashed in curJob; bound once per run as evalFn, since evaluating a
// method value allocates.
func (p *policy) evalCur(i int) float64 { return p.lambdaFor(p.curJob, i) }

func (p *policy) OnArrival(t float64, jk int) {
	j := p.c.Job(jk)
	// Dispatch: argmin λ_ij, ties to the lowest machine index.
	p.curJob = j
	best, bestLambda := p.pool.ArgMin(p.evalFn)
	m := &p.mach[best]
	p.c.Assign(jk, best)
	p.res.Dispatches++
	if p.track {
		// Grow to cover jk rather than appending: releases may decrease
		// within sched.Eps, so the arrival pop order can locally differ
		// from the feed order that assigned jk.
		p.growDual(jk)
		p.lambda[jk] = p.opt.Epsilon / (1 + p.opt.Epsilon) * bestLambda
		m.occChange(t, +1, true) // j enters U_best
		p.snap[jk] = m.remnantAcc
	}
	m.pending.Insert(p.key(j, best))
	m.counter++

	// Rejection Rule 1: count the dispatch against the running job.
	if !p.c.Machine(best).Idle() && !p.opt.DisableRule1 {
		m.runVictims++
		if m.runVictims >= p.r1 {
			p.rejectRunning(best, t)
		}
	}
	if p.c.Machine(best).Idle() {
		p.startNext(best, t)
	}
	// Rejection Rule 2: reject the largest pending job at the threshold.
	if m.counter >= p.r2 && !p.opt.DisableRule2 {
		m.counter = 0
		p.rejectLargestPending(best, t, j)
	}
}

// rejectRunning applies Rule 1 at time t: interrupt and reject the running
// job of machine i, distribute its remnant q to the C̃ accumulators of every
// job currently in U_i, and restart the machine.
func (p *policy) rejectRunning(i int, t float64) {
	m := &p.mach[i]
	k, q := p.c.RejectRunning(i, t)
	p.res.Rule1Rejections++
	if p.track {
		// D_x gains k for every x ∈ U_i(t), including k itself: bump the
		// machine accumulator before finishing k so k's own C̃ includes q.
		m.remnantAcc += q
		p.finish(i, k, t, 0) // k leaves U_i for V_i until C̃_k
	}
	m.runVictims = 0
	p.startNext(i, t)
}

// rejectLargestPending applies Rule 2 at time t (triggered by the arrival of
// job trigger): reject the pending job of machine i with the largest
// processing time, if any.
func (p *policy) rejectLargestPending(i int, t float64, trigger *sched.Job) {
	m := &p.mach[i]
	key, ok := m.pending.DeleteMax()
	if !ok {
		return // all recent dispatches started immediately; nothing queued
	}
	jk := p.c.IndexOf(key.ID)
	p.c.RejectPending(jk, t)
	p.res.Rule2Rejections++
	if !p.track {
		return
	}
	// Rule 2 term of C̃: the wait the rejected job is spared — the running
	// remnant, the processing of everything else pending (except the
	// triggering arrival), and its own processing time.
	var term float64
	runningID := -1
	ms := p.c.Machine(i)
	if !ms.Idle() {
		term += ms.RunVol - (t - ms.RunStart)
		runningID = p.c.ID(int(ms.Running))
	}
	others := m.pending.SumP()
	// The triggering arrival was dispatched here; it is still pending
	// unless it was started immediately (possible after a Rule 1
	// interruption) or is the job just rejected.
	if key.ID != trigger.ID && runningID != trigger.ID {
		others -= trigger.Proc[i]
	}
	term += others + key.P
	p.finish(i, jk, t, term)
}

// finish moves the job with compact index jk from U_i to V_i at time t and
// schedules its exit from V_i at the definitive-finish time C̃ = t +
// accumulated Rule 1 remnants + the Rule 2 term (zero except for
// Rule-2-rejected jobs).
func (p *policy) finish(i, jk int, t, rule2Term float64) {
	ct := t + (p.mach[i].remnantAcc - p.snap[jk]) + rule2Term
	p.ctilde[jk] = ct
	p.c.Bookkeep(ct, i, jk)
}

// startNext starts the SPT-first pending job on the idle machine i.
func (p *policy) startNext(i int, t float64) {
	m := &p.mach[i]
	key, ok := m.pending.DeleteMin()
	if !ok {
		return
	}
	m.runVictims = 0
	p.c.Start(i, t, p.c.IndexOf(key.ID), key.P, 1)
}

func (p *policy) OnCompletion(t float64, i, jk int) {
	if p.track {
		p.finish(i, jk, t, 0)
	}
	p.mach[i].runVictims = 0
}

func (p *policy) OnIdle(t float64, i int) { p.startNext(i, t) }

func (p *policy) OnBookkeeping(t float64, i, jk int) {
	p.mach[i].occChange(t, -1, p.track)
}
