// Package energymin implements the paper's §4 algorithm: online
// non-preemptive energy minimization of deadline-constrained jobs in the
// speed-scaling model, via the greedy primal-dual scheme on the
// configuration LP (Theorem 3 of Lucarelli et al., SPAA 2018).
//
// Model (the paper's discretized setting): time is divided into unit slots;
// a strategy for job j is a triple (machine i, start slot τ, window length L)
// with [τ, τ+L) ⊆ [r_j, d_j]; the job runs at the constant speed p_ij/L for
// the whole window. Jobs on one machine may overlap; the machine's power at
// slot t is P(u_i(t)) = u_i(t)^α where u_i(t) sums the speeds of everything
// running there.
//
// The algorithm is purely greedy and never revisits a decision: at each
// arrival it commits to the strategy minimizing the marginal energy
//
//	Σ_{t=τ}^{τ+L−1} [(u_i(t)+v)^α − u_i(t)^α],   v = p_ij/L.
//
// For power functions P(s)=s^α this is α^α-competitive; for general
// (λ,µ)-smooth powers the ratio is λ/(1−µ) (see the Smoothness helpers).
package energymin

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// Options configures a Scheduler.
type Options struct {
	// Machines is the number of machines.
	Machines int
	// Alpha > 1 is the power exponent.
	Alpha float64
	// Horizon is the number of unit time slots.
	Horizon int
	// LengthGridRatio discretizes the candidate window lengths to a
	// geometric grid with this ratio (the paper's discretized speed set,
	// losing a (1+ε) factor). Values ≤ 1 try every integer length.
	LengthGridRatio float64
	// FullWindowOnly restricts every job to the single strategy
	// (argmin-energy machine, τ=r_j, L=d_j−r_j): the AVERAGE-RATE (AVR)
	// comparator of Yao–Demers–Shenker, used as the experiment baseline.
	FullWindowOnly bool
}

// Placement is the committed strategy of one job.
type Placement struct {
	Machine int
	Start   int
	Length  int
	Speed   float64
	// Marginal is the marginal energy paid at commitment time (the dual
	// quantity λ·δ_j of the analysis).
	Marginal float64
}

// Scheduler greedily places jobs one at a time; it is the online §4
// algorithm exposed incrementally so adaptive adversaries (Lemma 2) can
// interrogate it.
type Scheduler struct {
	opt    Options
	u      [][]float64 // per machine, per slot: summed speed
	out    *sched.Outcome
	energy float64
	// placed records commitments in placement order; the greedy never
	// revisits a decision, so an append-only log replaces the former
	// map[int]Placement and keeps Place allocation-free in steady state.
	placed []jobPlacement
	// lenbuf backs the candidate-length grid returned by lengths; the grid
	// is consumed within one machine's scan of Place, so a single reused
	// buffer keeps the per-(job, machine) enumeration allocation-free.
	lenbuf []int
}

// jobPlacement pairs a job id with its committed strategy.
type jobPlacement struct {
	id int
	p  Placement
}

// New returns an empty scheduler.
func New(opt Options) (*Scheduler, error) {
	if opt.Machines <= 0 {
		return nil, fmt.Errorf("energymin: need machines, got %d", opt.Machines)
	}
	if !(opt.Alpha > 1) {
		return nil, fmt.Errorf("energymin: alpha must exceed 1, got %v", opt.Alpha)
	}
	if opt.Horizon < 1 {
		return nil, fmt.Errorf("energymin: need a positive horizon, got %d", opt.Horizon)
	}
	s := &Scheduler{opt: opt, out: sched.NewOutcome()}
	s.u = make([][]float64, opt.Machines)
	for i := range s.u {
		s.u[i] = make([]float64, opt.Horizon)
	}
	return s, nil
}

// lengths enumerates candidate window lengths up to maxLen on the configured
// geometric grid, always including 1 and maxLen. The returned slice aliases
// the scheduler's reused buffer and is valid until the next lengths call.
func (s *Scheduler) lengths(maxLen int) []int {
	if maxLen < 1 {
		return nil
	}
	out := s.lenbuf[:0]
	ratio := s.opt.LengthGridRatio
	if ratio <= 1 {
		for l := 1; l <= maxLen; l++ {
			out = append(out, l)
		}
		s.lenbuf = out
		return out
	}
	l := 1
	for l < maxLen {
		out = append(out, l)
		nl := int(math.Ceil(float64(l) * ratio))
		if nl <= l {
			nl = l + 1
		}
		l = nl
	}
	out = append(out, maxLen)
	s.lenbuf = out
	return out
}

// GridSize reports how many candidate window lengths the configured grid
// yields for a window of maxLen slots (ablation instrumentation).
func (s *Scheduler) GridSize(maxLen int) int { return len(s.lengths(maxLen)) }

// Place commits job j to its greedy strategy and returns it. The error is
// non-nil when the job has no feasible window (empty [⌈r⌉, ⌊d⌋) span).
func (s *Scheduler) Place(j *sched.Job) (Placement, error) {
	if len(j.Proc) != s.opt.Machines {
		return Placement{}, fmt.Errorf("energymin: job %d has %d processing volumes, want %d", j.ID, len(j.Proc), s.opt.Machines)
	}
	r := int(math.Ceil(j.Release - sched.Eps))
	d := int(math.Floor(j.Deadline + sched.Eps))
	if d > s.opt.Horizon {
		d = s.opt.Horizon
	}
	if r < 0 {
		r = 0
	}
	if d-r < 1 {
		return Placement{}, fmt.Errorf("energymin: job %d has no feasible slot in [%v,%v]", j.ID, j.Release, j.Deadline)
	}
	alpha := s.opt.Alpha
	best := Placement{Marginal: math.Inf(1)}
	consider := func(i, tau, length int, vol float64) {
		v := vol / float64(length)
		var cost float64
		ui := s.u[i]
		for t := tau; t < tau+length; t++ {
			cost += math.Pow(ui[t]+v, alpha) - math.Pow(ui[t], alpha)
		}
		if cost < best.Marginal-1e-12 {
			best = Placement{Machine: i, Start: tau, Length: length, Speed: v, Marginal: cost}
		}
	}
	for i := 0; i < s.opt.Machines; i++ {
		vol := j.Proc[i]
		if s.opt.FullWindowOnly {
			consider(i, r, d-r, vol)
			continue
		}
		for _, length := range s.lengths(d - r) {
			// Slide the window; recompute per-τ costs incrementally.
			v := vol / float64(length)
			ui := s.u[i]
			var cost float64
			for t := r; t < r+length; t++ {
				cost += math.Pow(ui[t]+v, alpha) - math.Pow(ui[t], alpha)
			}
			tau := r
			for {
				if cost < best.Marginal-1e-12 {
					best = Placement{Machine: i, Start: tau, Length: length, Speed: v, Marginal: cost}
				}
				if tau+length >= d {
					break
				}
				cost -= math.Pow(ui[tau]+v, alpha) - math.Pow(ui[tau], alpha)
				cost += math.Pow(ui[tau+length]+v, alpha) - math.Pow(ui[tau+length], alpha)
				tau++
			}
		}
	}
	if math.IsInf(best.Marginal, 1) {
		return Placement{}, fmt.Errorf("energymin: job %d has no feasible strategy", j.ID)
	}
	for t := best.Start; t < best.Start+best.Length; t++ {
		s.u[best.Machine][t] += best.Speed
	}
	s.energy += best.Marginal
	s.placed = append(s.placed, jobPlacement{id: j.ID, p: best})
	s.out.Assigned[j.ID] = best.Machine
	s.out.Completed[j.ID] = float64(best.Start + best.Length)
	s.out.Intervals = append(s.out.Intervals, sched.Interval{
		Job: j.ID, Machine: best.Machine,
		Start: float64(best.Start), End: float64(best.Start + best.Length),
		Speed: best.Speed,
	})
	return best, nil
}

// Energy returns the total energy of all commitments so far. By telescoping
// it equals Σ_i Σ_t u_i(t)^α exactly.
func (s *Scheduler) Energy() float64 { return s.energy }

// Placements returns the per-job commitments.
func (s *Scheduler) Placements() map[int]Placement {
	out := make(map[int]Placement, len(s.placed))
	for _, e := range s.placed {
		out[e.id] = e.p
	}
	return out
}

// newFor validates a deadline instance and builds a scheduler for it, with
// zero options taken from the instance: its machines, its α and a horizon at
// its latest deadline.
func newFor(ins *sched.Instance, opt Options) (*Scheduler, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	if opt.Machines == 0 {
		opt.Machines = ins.Machines
	}
	if opt.Alpha == 0 {
		opt.Alpha = ins.Alpha
	}
	if opt.Horizon == 0 {
		h := 0.0
		for k := range ins.Jobs {
			if d := ins.Jobs[k].Deadline; !math.IsInf(d, 1) && d > h {
				h = d
			}
		}
		opt.Horizon = int(math.Ceil(h))
	}
	return New(opt)
}

// Result is the audited output of Run.
type Result struct {
	Outcome    *sched.Outcome
	Energy     float64
	Placements map[int]Placement
}

// Run places every job of a deadline instance in release order.
func Run(ins *sched.Instance, opt Options) (*Result, error) {
	s, err := newFor(ins, opt)
	if err != nil {
		return nil, err
	}
	for k := range ins.Jobs {
		if _, err := s.Place(&ins.Jobs[k]); err != nil {
			return nil, err
		}
	}
	return &Result{Outcome: s.out, Energy: s.energy, Placements: s.Placements()}, nil
}

// TheoryRatio is the proven competitive ratio α^α for P(s)=s^α.
func TheoryRatio(alpha float64) float64 { return math.Pow(alpha, alpha) }

// Lemma2Bound is the deterministic lower bound (α/9)^α of Lemma 2.
func Lemma2Bound(alpha float64) float64 { return math.Pow(alpha/9, alpha) }
