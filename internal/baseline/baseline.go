// Package baseline implements the comparator schedulers the experiments
// measure the paper's algorithms against:
//
//   - GreedySPT: non-preemptive greedy — dispatch to the machine with the
//     least estimated completion backlog, serve shortest-processing-time
//     first, never reject. (The natural no-rejection heuristic.)
//   - FCFS: least-loaded dispatch, first-come-first-served order.
//   - LeastLoaded: least-loaded dispatch, SPT order.
//   - SpeedAugmented: the ESA'16 [5]-style comparator — machines run at
//     speed 1+εs and the running job is rejected after ⌈1/εr⌉ dispatches
//     arrive during its execution (rejection + speed augmentation).
//   - ImmediateReject: a work-conserving policy that must decide rejections
//     at arrival time (the Lemma 1 regime): it rejects an arriving job when
//     it is an outlier versus history and the rejection budget allows.
//
// Every baseline is one engine.Policy run on internal/engine, like the
// paper's algorithms: the engine owns the event loop, the run state, the
// outcome record and the end-of-run audit, so the comparators and the
// algorithms they are measured against share one event order and one audit.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/ostree"
	"repro/internal/sched"
)

// DispatchRule selects the machine for an arriving job.
type DispatchRule int

const (
	// DispatchBacklog picks argmin_i (queued work + running remnant + p_ij).
	DispatchBacklog DispatchRule = iota
	// DispatchLeastLoaded picks argmin_i (queued work + running remnant).
	DispatchLeastLoaded
	// DispatchMinProc picks argmin_i p_ij.
	DispatchMinProc
)

// ServiceOrder selects which pending job an idle machine starts.
type ServiceOrder int

const (
	// OrderSPT serves shortest processing time first.
	OrderSPT ServiceOrder = iota
	// OrderFCFS serves in arrival order.
	OrderFCFS
	// OrderHDF serves highest density (w/p) first.
	OrderHDF
)

// Config parameterizes the baseline policy.
type Config struct {
	Dispatch DispatchRule
	Order    ServiceOrder
	// Speed is the machine speed (1 for plain baselines, 1+εs for the
	// speed-augmented comparator). Processing time on machine i is
	// p_ij/Speed.
	Speed float64
	// JobSpeed, when non-nil, overrides Speed per (job, machine): the job
	// runs at JobSpeed(j, i) for its whole execution (the fixed-speed
	// comparator of the speed-scaling experiments).
	JobSpeed func(j *sched.Job, machine int) float64
	// Rule1Threshold, when positive, rejects the running job once that
	// many jobs have been dispatched to its machine during its execution
	// (the rejection half of the speed-augmented comparator).
	Rule1Threshold int
	// ImmediateReject, when non-nil, is consulted once at each arrival;
	// returning true rejects the job on the spot (it never enters a
	// queue). This models the Lemma 1 regime.
	ImmediateReject func(t float64, j *sched.Job, seen int, meanProc float64, rejected int) bool
}

// GreedySPT runs the no-rejection greedy baseline.
func GreedySPT(ins *sched.Instance) (*sched.Outcome, error) {
	return Run(ins, Config{Dispatch: DispatchBacklog, Order: OrderSPT, Speed: 1})
}

// FCFS runs least-loaded dispatch with first-come-first-served service.
func FCFS(ins *sched.Instance) (*sched.Outcome, error) {
	return Run(ins, Config{Dispatch: DispatchLeastLoaded, Order: OrderFCFS, Speed: 1})
}

// LeastLoaded runs least-loaded dispatch with SPT service.
func LeastLoaded(ins *sched.Instance) (*sched.Outcome, error) {
	return Run(ins, Config{Dispatch: DispatchLeastLoaded, Order: OrderSPT, Speed: 1})
}

// SpeedAugmented runs the [5]-style comparator with speed 1+epsS and a
// Rule-1-style rejection threshold ⌈1/epsR⌉.
func SpeedAugmented(ins *sched.Instance, epsS, epsR float64) (*sched.Outcome, error) {
	if !positiveFinite(epsS) || !positiveFinite(epsR) {
		return nil, fmt.Errorf("baseline: epsS and epsR must be positive and finite, got %v and %v", epsS, epsR)
	}
	return Run(ins, Config{
		Dispatch: DispatchBacklog, Order: OrderSPT,
		Speed:          1 + epsS,
		Rule1Threshold: int(math.Ceil(1/epsR - 1e-12)),
	})
}

// FixedSpeedHDF is the no-rejection comparator for the weighted
// flow-plus-energy experiments: highest-density-first service with each job
// run at its solo-optimal constant speed s*_j = (w_j/(α−1))^(1/α) — the
// speed that minimizes the job's own w·p/s + p·s^(α−1) — oblivious to
// backlog. It isolates what the paper's backlog-adaptive speed rule and
// rejections buy.
func FixedSpeedHDF(ins *sched.Instance, alpha float64) (*sched.Outcome, error) {
	if !(alpha > 1) {
		return nil, fmt.Errorf("baseline: alpha must exceed 1, got %v", alpha)
	}
	return Run(ins, Config{
		Dispatch: DispatchBacklog, Order: OrderHDF, Speed: 1,
		JobSpeed: func(j *sched.Job, _ int) float64 {
			return math.Pow(j.Weight/(alpha-1), 1/alpha)
		},
	})
}

// ImmediateReject runs a work-conserving SPT policy that may reject only at
// arrival instants: an arriving job is rejected when its processing time on
// its best machine exceeds outlier×(running mean of arrivals so far) and
// fewer than eps·(arrivals so far) jobs have been rejected.
func ImmediateReject(ins *sched.Instance, eps, outlier float64) (*sched.Outcome, error) {
	if !positiveFinite(eps) || !positiveFinite(outlier) {
		return nil, fmt.Errorf("baseline: eps and outlier must be positive and finite, got %v and %v", eps, outlier)
	}
	return Run(ins, Config{
		Dispatch: DispatchBacklog, Order: OrderSPT, Speed: 1,
		ImmediateReject: func(t float64, j *sched.Job, seen int, meanProc float64, rejected int) bool {
			if seen == 0 || float64(rejected+1) > eps*float64(seen+1) {
				return false
			}
			return j.MinProc() > outlier*meanProc
		},
	})
}

// machine is the per-machine policy state; the engine owns the run state.
type machine struct {
	pending   *ostree.Flat
	queueWork float64 // Σ p over pending (on this machine)
	victims   int     // dispatches to the machine during its running job
}

// policy implements engine.Policy for every Config.
type policy struct {
	c    *engine.Core
	cfg  Config
	mach []machine
	// Arrival history handed to cfg.ImmediateReject: arrivals so far, the
	// sum of their best processing times, and immediate rejections.
	seen, rejected int
	sumProc        float64
}

// newPolicy is the policy's engine.Host; the pending indexes grow on
// demand, so the size hint goes unused. The result is the bare outcome.
func (cfg Config) newPolicy(machines, _ int) (engine.Policy, func(*sched.Outcome) *sched.Outcome) {
	p := &policy{cfg: cfg, mach: make([]machine, machines)}
	for i := range p.mach {
		p.mach[i].pending = ostree.NewFlat()
	}
	return p, func(o *sched.Outcome) *sched.Outcome { return o }
}

// Run executes the configured baseline on the instance: an engine session
// sized for the instance and fed all of it in one batch, so an invalid
// instance fails with the feed's "engine:" error.
func Run(ins *sched.Instance, cfg Config) (*sched.Outcome, error) {
	if !positiveFinite(cfg.Speed) {
		return nil, fmt.Errorf("baseline: speed must be positive and finite, got %v", cfg.Speed)
	}
	return engine.RunBatch(ins, func(machines, hint int) (*engine.Typed[*sched.Outcome], error) {
		return engine.NewTyped(engine.Options{Machines: machines, SizeHint: hint}, cfg.newPolicy)
	})
}

// positiveFinite reports 0 < x < +Inf; NaN fails it.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// The engine's audit covers the policy: a job left pending is a job neither
// completed nor rejected, which the engine refuses at the end of the run.
func (p *policy) Audit() error                       { return nil }
func (p *policy) Bind(c *engine.Core)                { p.c = c }
func (p *policy) Close()                             {}
func (p *policy) OnCompletion(t float64, i, jk int)  {}
func (p *policy) OnIdle(t float64, i int)            { p.startNext(i, t) }
func (p *policy) OnBookkeeping(t float64, i, jk int) {}

// key is the service-order key of job j queued on machine i.
func (p *policy) key(j *sched.Job, i int) ostree.Key {
	switch p.cfg.Order {
	case OrderFCFS:
		return ostree.Key{P: j.Release, Release: j.Release, ID: j.ID}
	case OrderHDF:
		return ostree.Key{P: -j.Weight / j.Proc[i], Release: j.Release, ID: j.ID}
	default:
		return ostree.Key{P: j.Proc[i], Release: j.Release, ID: j.ID}
	}
}

// remnant is the time machine i still needs for its running job at t.
func (p *policy) remnant(i int, t float64) float64 {
	if ms := p.c.Machine(i); !ms.Idle() {
		if end := ms.RunStart + ms.RunVol/ms.RunSpeed; t < end {
			return end - t
		}
	}
	return 0
}

// startNext starts the first pending job of the idle machine i.
func (p *policy) startNext(i int, t float64) {
	m := &p.mach[i]
	k, ok := m.pending.DeleteMin()
	if !ok {
		return
	}
	jk := p.c.IndexOf(k.ID)
	j := p.c.Job(jk)
	m.queueWork -= j.Proc[i]
	speed := p.cfg.Speed
	if p.cfg.JobSpeed != nil {
		speed = p.cfg.JobSpeed(j, i)
	}
	m.victims = 0
	p.c.Start(i, t, jk, j.Proc[i], speed)
}

func (p *policy) OnArrival(t float64, jk int) {
	j := p.c.Job(jk)
	reject := false
	if p.cfg.ImmediateReject != nil {
		mean := 0.0
		if p.seen > 0 {
			mean = p.sumProc / float64(p.seen)
		}
		reject = p.cfg.ImmediateReject(t, j, p.seen, mean, p.rejected)
	}
	p.seen++
	p.sumProc += j.MinProc()
	if reject {
		p.c.RejectPending(jk, t)
		p.rejected++
		return
	}
	best, bestCost := 0, math.Inf(1)
	for i := range p.mach {
		var cost float64
		switch p.cfg.Dispatch {
		case DispatchBacklog:
			cost = p.mach[i].queueWork + p.remnant(i, t) + j.Proc[i]
		case DispatchLeastLoaded:
			cost = p.mach[i].queueWork + p.remnant(i, t)
		case DispatchMinProc:
			cost = j.Proc[i]
		}
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	m := &p.mach[best]
	p.c.Assign(jk, best)
	m.pending.Insert(p.key(j, best))
	m.queueWork += j.Proc[best]
	if !p.c.Machine(best).Idle() && p.cfg.Rule1Threshold > 0 {
		if m.victims++; m.victims >= p.cfg.Rule1Threshold {
			// Reject the running job, speed-augmented style.
			p.c.RejectRunning(best, t)
		}
	}
	if p.c.Machine(best).Idle() {
		p.startNext(best, t)
	}
}
