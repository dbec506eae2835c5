// Package srpt hosts the preemptive reference comparators on the shared
// engine: per-machine preemptive shortest-remaining-processing-time (Run /
// Session) and a migratory weighted-SRPT variant (RunWeighted /
// WeightedSession, see wsrpt.go).
//
// The paper's algorithms are non-preemptive; these policies measure what the
// *ability to preempt* (and, for the weighted variant, to migrate) buys on
// the same instances — the empirical "price of non-preemption" reported by
// experiment E15 and `schedsim -compare`. Per-machine SRPT is optimal for
// total flow time on a single machine, so on m=1 its flow equals
// lowerbound.SRPTBound exactly.
//
// Policy of the unweighted variant, identical to the pre-engine
// baseline.PreemptiveSRPT (the golden equivalence test pins bit-identical
// outcomes across the migration):
//
//   - Dispatching: at the arrival of job j, dispatch to the machine
//     minimizing its remaining backlog plus p_ij (frozen waiting volumes,
//     the running job's true remainder), ties to the lowest index. The
//     argmin runs on the internal/dispatch pool like the λ-dispatch
//     schedulers.
//   - Scheduling: each machine runs SRPT — a shorter arrival preempts the
//     running job (engine Preempt), whose remainder is banked in the
//     per-machine waiting index; whenever a machine idles it resumes the
//     waiting job with the least remaining time. No job is ever rejected
//     and no job migrates: preempted work resumes where it stopped.
//
// Outcomes validate with sched.ValidateMode{AllowPreemption: true}; the
// engine's end-of-run audit checks volume conservation across every
// preemption chain.
package srpt

import (
	"fmt"

	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/ostree"
	"repro/internal/sched"
)

// Options configures a run.
type Options struct {
	// ParallelDispatch sets the number of workers sharding the arrival-time
	// least-backlog argmin: 0 or 1 scans serially, ≥ 2 starts a worker pool
	// of that size. The choice never changes the output (see
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

// Result is the audited output of a run.
type Result struct {
	Outcome *sched.Outcome
	// Preemptions counts engine Preempt calls (banked remainders).
	Preemptions int
}

// machine is the per-machine policy state (the engine owns the run state).
type machine struct {
	waiting *ostree.Flat // Key.P = frozen remaining processing time
}

// policy implements engine.Policy with per-machine preemptive SRPT.
type policy struct {
	c      *engine.Core
	opt    Options
	res    *Result
	mach   []machine
	pool   *dispatch.Pool
	curJob *sched.Job        // job under dispatch, read by the argmin eval
	curT   float64           // arrival instant of curJob
	evalFn func(int) float64 // evalCur bound once per run (a method value allocates)
}

func newPolicy(opt Options, machines int) *policy {
	p := &policy{opt: opt, res: &Result{}}
	p.mach = make([]machine, machines)
	for i := range p.mach {
		p.mach[i] = machine{waiting: ostree.NewFlat()}
	}
	p.pool = dispatch.NewPool(opt.ParallelDispatch, machines)
	p.evalFn = p.evalCur
	return p
}

func (p *policy) Bind(c *engine.Core) { p.c = c }

func (p *policy) Close() { p.pool.Close() }

func (p *policy) Audit() error {
	for i := range p.mach {
		if p.mach[i].waiting.Len() != 0 {
			return fmt.Errorf("srpt: internal invariant violated: machine %d still has waiting jobs at end of run", i)
		}
	}
	return nil
}

// costFor evaluates the dispatch cost of a hypothetical assignment of j to
// machine i: the frozen waiting backlog, j's own processing time, and the
// running job's true remainder. Read-only, safe for concurrent machine
// shards.
func (p *policy) costFor(j *sched.Job, i int) float64 {
	cost := p.mach[i].waiting.SumP() + j.Proc[i]
	ms := p.c.Machine(i)
	if !ms.Idle() {
		cost += ms.RunVol - (p.curT - ms.RunStart)
	}
	return cost
}

// evalCur adapts costFor to the dispatch pool's eval signature for the job
// stashed in curJob; bound once per run as evalFn, since evaluating a
// method value allocates.
func (p *policy) evalCur(i int) float64 { return p.costFor(p.curJob, i) }

func (p *policy) OnArrival(t float64, jk int) {
	j := p.c.Job(jk)
	p.curJob, p.curT = j, t
	best, _ := p.pool.ArgMin(p.evalFn)
	p.c.Assign(jk, best)
	m := &p.mach[best]
	ms := p.c.Machine(best)
	pp := j.Proc[best]
	if ms.Idle() {
		p.c.Start(best, t, jk, pp, 1)
		return
	}
	curRem := ms.RunVol - (t - ms.RunStart)
	if pp < curRem-sched.Eps {
		// Preempt: bank the running job's remainder under its original
		// release (SRPT order only keys on remaining time; release and id
		// break ties deterministically).
		run := p.c.Job(int(ms.Running))
		_, rem := p.c.Preempt(best, t)
		m.waiting.Insert(ostree.Key{P: rem, Release: run.Release, ID: run.ID})
		p.res.Preemptions++
		p.c.Start(best, t, jk, pp, 1)
	} else {
		m.waiting.Insert(ostree.Key{P: pp, Release: j.Release, ID: j.ID})
	}
}

// startNext resumes the waiting job with the least remaining time on the
// idle machine i.
func (p *policy) startNext(i int, t float64) {
	if key, ok := p.mach[i].waiting.DeleteMin(); ok {
		p.c.Start(i, t, p.c.IndexOf(key.ID), key.P, 1)
	}
}

func (p *policy) OnCompletion(t float64, i, jk int)  {}
func (p *policy) OnIdle(t float64, i int)            { p.startNext(i, t) }
func (p *policy) OnBookkeeping(t float64, i, jk int) {}
