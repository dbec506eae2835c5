// Package wflow implements a *weighted* generalization of the paper's §2
// flow-time algorithm — an EXTENSION of this reproduction, not a result of
// the paper. Theorem 1 covers unweighted total flow time; the natural open
// question (the weighted case without speed scaling) is what this package
// explores empirically (experiment E13).
//
// Design, generalizing §2 exactly the way §3 generalizes its machinery:
//
//   - Pending jobs are served highest-density-first (δ_ij = w_j/p_ij),
//     the weighted analogue of SPT.
//   - Dispatch minimizes the marginal increase of weighted flow time
//     λ_ij = w_j·p_ij/ε + w_j·Σ_{ℓ⪯j} p_iℓ + p_ij·Σ_{ℓ≻j} w_ℓ, keeping
//     the w·p/ε credit term (reduces to the paper's λ_ij when w ≡ 1).
//   - Rule 1 (weighted): the running job k accumulates the weight of jobs
//     dispatched during its execution and is rejected when that exceeds
//     w_k/ε — exactly the §3 rejection rule.
//   - Rule 2 (weighted, budgeted): a per-machine weight counter c_i grows
//     with every dispatched weight; the largest-processing-time pending job
//     ĵ is rejected whenever w_ĵ ≤ ε/(1+ε)·c_i, paying for itself out of
//     the accumulated budget (c_i is then charged w_ĵ·(1+ε)/ε).
//
// Both rules charge every rejected unit of weight against at least 1/ε
// dispatched units on disjoint charging windows, so the total rejected
// weight is at most 2ε·W — the budget half of a weighted Theorem 1. No
// competitive-ratio proof is claimed; E13 measures the ratio empirically.
//
// The event-loop mechanics live in internal/engine; this package is the
// engine Policy carrying the weighted rules, runnable in batch (Run) or
// streaming (Session) form with bit-identical outcomes. The density index
// (a cache-resident ostree.Flat) carries (p, w) as its auxiliary value
// pair, so one rank query yields both prefix aggregates of λ_ij; the
// machine argmin shards across internal/dispatch like the unweighted
// scheduler.
package wflow

import (
	"fmt"

	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/ostree"
	"repro/internal/sched"
)

// Options configures a run.
type Options struct {
	// Epsilon ∈ (0,1): the rejected weight budget is 2ε·W.
	Epsilon float64
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
		return fmt.Errorf("wflow: epsilon must be in (0,1), got %v", o.Epsilon)
	}
	return nil
}

// Result is the audited output of a run.
type Result struct {
	Outcome *sched.Outcome
	// Rule1Rejections / Rule2Rejections split the rejection count.
	Rule1Rejections int
	Rule2Rejections int
	// RejectedWeight sums the weights of rejected jobs.
	RejectedWeight float64
}

// wmachine is the per-machine policy state (the engine owns the run state).
type wmachine struct {
	// pending orders by descending density via negated key (ostree sorts
	// ascending) and carries (p, w) as its value pair, so λ's prefix sums
	// come from one rank query; paired with byProc for Rule 2's
	// delete-max-processing.
	pending *ostree.Flat // Key.P = −w/p (density order), vals = (p, w)
	byProc  *ostree.Flat // Key.P = p (processing-time order)

	victimW  float64 // Rule 1 weighted victim counter for the running job
	counterW float64 // Rule 2 weighted counter c_i
}

// wpolicy implements engine.Policy with the weighted rules.
type wpolicy struct {
	c      *engine.Core
	opt    Options
	res    *Result
	mach   []wmachine
	pool   *dispatch.Pool
	curJob *sched.Job        // job under dispatch, read by the argmin eval
	evalFn func(int) float64 // evalCur bound once per run (a method value allocates)
}

func newPolicy(opt Options, machines, hint int) *wpolicy {
	p := &wpolicy{opt: opt, res: &Result{}}
	p.mach = make([]wmachine, machines)
	for i := range p.mach {
		p.mach[i] = wmachine{
			pending: ostree.NewFlatHint(pendingHint(hint, machines)),
			byProc:  ostree.NewFlatHint(pendingHint(hint, machines)),
		}
	}
	p.pool = dispatch.NewPool(opt.ParallelDispatch, machines)
	p.evalFn = p.evalCur
	return p
}

// pendingHint sizes a per-machine pending index for a run of about hint
// jobs: the expected per-machine share, capped because pending queues drain
// (their peak is load-bound, not run-length-bound).
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

func (p *wpolicy) Bind(c *engine.Core) { p.c = c }

func (p *wpolicy) Close() { p.pool.Close() }

func (p *wpolicy) Audit() error {
	for i := range p.mach {
		if p.mach[i].pending.Len() != 0 || p.mach[i].byProc.Len() != 0 {
			return fmt.Errorf("wflow: internal invariant violated: machine %d still has pending jobs at end of run", i)
		}
	}
	return nil
}

func (p *wpolicy) densityKey(j *sched.Job, i int) ostree.Key {
	return ostree.Key{P: -j.Weight / j.Proc[i], Release: j.Release, ID: j.ID}
}

func (p *wpolicy) procKey(j *sched.Job, i int) ostree.Key {
	return ostree.Key{P: j.Proc[i], Release: j.Release, ID: j.ID}
}

// lambdaFor evaluates the weighted λ_ij for a hypothetical dispatch of j to
// machine i. The density index aggregates (p, w) alongside its keys, so the
// prefix processing time Σ_{ℓ⪯j} p_iℓ and prefix weight both come from a
// single rank query; the suffix weight is the complement against the
// machine's pending total. Read-only, safe for concurrent machine shards.
func (p *wpolicy) lambdaFor(j *sched.Job, i int) float64 {
	m := &p.mach[i]
	pp, w := j.Proc[i], j.Weight
	_, _, sumPBefore, wBefore, _ := m.pending.RankStatsVals(p.densityKey(j, i))
	_, totW := m.pending.SumVals() // Σ w over pending, from the same aggregate
	wAfter := totW - wBefore
	return w*pp/p.opt.Epsilon + w*(sumPBefore+pp) + pp*wAfter
}

// evalCur adapts lambdaFor to the dispatch pool's eval signature for the job
// stashed in curJob; bound once per run as evalFn, since evaluating a
// method value allocates.
func (p *wpolicy) evalCur(i int) float64 { return p.lambdaFor(p.curJob, i) }

func (p *wpolicy) insertPending(j *sched.Job, i int) {
	m := &p.mach[i]
	m.pending.InsertVals(p.densityKey(j, i), j.Proc[i], j.Weight)
	m.byProc.Insert(p.procKey(j, i))
}

func (p *wpolicy) removePending(j *sched.Job, i int) {
	m := &p.mach[i]
	m.pending.Delete(p.densityKey(j, i))
	m.byProc.Delete(p.procKey(j, i))
}

func (p *wpolicy) OnArrival(t float64, jk int) {
	j := p.c.Job(jk)
	p.curJob = j
	best, _ := p.pool.ArgMin(p.evalFn)
	m := &p.mach[best]
	p.c.Assign(jk, best)
	p.insertPending(j, best)
	m.counterW += j.Weight

	// Rule 1 (weighted): charge the running job.
	ms := p.c.Machine(best)
	if !ms.Idle() {
		m.victimW += j.Weight
		if m.victimW > p.c.Job(int(ms.Running)).Weight/p.opt.Epsilon {
			p.rejectRunning(best, t)
		}
	}
	if p.c.Machine(best).Idle() {
		p.startNext(best, t)
	}
	// Rule 2 (weighted, budgeted): shed the largest pending job whenever
	// the accumulated weight affords it.
	p.maybeRejectLargest(best, t)
}

func (p *wpolicy) rejectRunning(i int, t float64) {
	k, _ := p.c.RejectRunning(i, t)
	p.res.Rule1Rejections++
	p.res.RejectedWeight += p.c.Job(k).Weight
	p.mach[i].victimW = 0
}

func (p *wpolicy) maybeRejectLargest(i int, t float64) {
	m := &p.mach[i]
	eps := p.opt.Epsilon
	for {
		key, ok := m.byProc.Max()
		if !ok {
			return
		}
		jk := p.c.IndexOf(key.ID)
		j := p.c.Job(jk)
		if j.Weight > eps/(1+eps)*m.counterW {
			return // cannot afford the largest job yet
		}
		p.removePending(j, i)
		m.counterW -= j.Weight * (1 + eps) / eps
		p.c.RejectPending(jk, t)
		p.res.Rule2Rejections++
		p.res.RejectedWeight += j.Weight
	}
}

func (p *wpolicy) startNext(i int, t float64) {
	m := &p.mach[i]
	key, ok := m.pending.Min() // most negative −w/p = highest density
	if !ok {
		return
	}
	jk := p.c.IndexOf(key.ID)
	j := p.c.Job(jk)
	p.removePending(j, i)
	m.victimW = 0
	p.c.Start(i, t, jk, j.Proc[i], 1)
}

func (p *wpolicy) OnCompletion(t float64, i, jk int) {
	p.mach[i].victimW = 0
}

func (p *wpolicy) OnIdle(t float64, i int) { p.startNext(i, t) }

func (p *wpolicy) OnBookkeeping(t float64, i, jk int) {}
