package energymin

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// MarginalOf evaluates the marginal energy of placing volume vol on machine
// i over the window [start, start+length) at constant speed vol/length,
// against the scheduler's *current* profile — the quantity λ·β_{i,j,k} of
// the §4 dual.
func (s *Scheduler) MarginalOf(i, start, length int, vol float64) float64 {
	v := vol / float64(length)
	var cost float64
	for t := start; t < start+length; t++ {
		cost += math.Pow(s.u[i][t]+v, s.opt.Alpha) - math.Pow(s.u[i][t], s.opt.Alpha)
	}
	return cost
}

// ConfigAudit is the result of AuditConfiguration: the numeric check of the
// §4 dual feasibility (Lemma 7) against one alternative configuration.
type ConfigAudit struct {
	// GreedyExcess is max_j [committed marginal − alternative marginal];
	// ≤ 0 certifies the first dual constraint δ_j ≤ β_{i,j,k} on the
	// audited strategies (greedy minimality).
	GreedyExcess float64
	// ConfigExcess is max_i [Σ_{j∈A_i} (f_i(A*_{≺j} ∪ a_j) − f_i(A*_{≺j}))
	// − λ·f_i(A_i) − µ·f_i(A*_i)]; ≤ 0 certifies the second dual
	// constraint (inequality (1) of the paper) on configuration A.
	ConfigExcess float64
	// Lambda and Mu are the smoothness constants used.
	Lambda, Mu float64
	// GreedyEnergy and AltEnergy are f(A*) and f(A).
	GreedyEnergy, AltEnergy float64
}

// AuditConfiguration replays the greedy algorithm on the instance while
// evaluating, at each arrival, the marginal cost of the job's *alternative*
// strategy from alt (a feasible placement per job id) against the greedy's
// profile-so-far. It then checks both dual constraints of §4 with the
// certified smoothness constants (LambdaSufficient, Mu).
//
// Any feasible alternative configuration works; auditing against (an
// approximation of) the optimal configuration makes the check strongest.
func AuditConfiguration(ins *sched.Instance, opt Options, alt map[int]Placement) (*ConfigAudit, error) {
	s, err := newFor(ins, opt)
	if err != nil {
		return nil, err
	}
	opt = s.opt
	audit := &ConfigAudit{
		GreedyExcess: math.Inf(-1),
		ConfigExcess: math.Inf(-1),
		Lambda:       LambdaSufficient(opt.Alpha),
		Mu:           Mu(opt.Alpha),
	}
	lhs := make([]float64, opt.Machines)   // Σ marginals of alt strategies
	fStar := make([]float64, opt.Machines) // per-machine greedy energy
	uAlt := make([][]float64, opt.Machines)
	for i := range uAlt {
		uAlt[i] = make([]float64, opt.Horizon)
	}
	for k := range ins.Jobs {
		j := &ins.Jobs[k]
		a, ok := alt[j.ID]
		if !ok {
			return nil, fmt.Errorf("energymin: audit: no alternative placement for job %d", j.ID)
		}
		if a.Start < int(math.Ceil(j.Release-sched.Eps)) || a.Start+a.Length > int(math.Floor(j.Deadline+sched.Eps)) || a.Length < 1 {
			return nil, fmt.Errorf("energymin: audit: alternative for job %d infeasible: %+v", j.ID, a)
		}
		altMarginal := s.MarginalOf(a.Machine, a.Start, a.Length, j.Proc[a.Machine])
		lhs[a.Machine] += altMarginal
		pl, err := s.Place(j)
		if err != nil {
			return nil, err
		}
		fStar[pl.Machine] += pl.Marginal
		if ex := pl.Marginal - altMarginal; ex > audit.GreedyExcess {
			audit.GreedyExcess = ex
		}
		v := j.Proc[a.Machine] / float64(a.Length)
		for t := a.Start; t < a.Start+a.Length; t++ {
			uAlt[a.Machine][t] += v
		}
	}
	audit.GreedyEnergy = s.Energy()
	for i := 0; i < opt.Machines; i++ {
		var fAlt float64
		for _, u := range uAlt[i] {
			if u > 0 {
				fAlt += math.Pow(u, opt.Alpha)
			}
		}
		audit.AltEnergy += fAlt
		if ex := lhs[i] - audit.Lambda*fAlt - audit.Mu*fStar[i]; ex > audit.ConfigExcess {
			audit.ConfigExcess = ex
		}
	}
	return audit, nil
}

// FullWindowConfiguration builds the deterministic alternative configuration
// that runs every job over its whole feasible window on its min-volume
// machine — always feasible, and a natural audit target (it is the AVR
// shape).
func FullWindowConfiguration(ins *sched.Instance, horizon int) map[int]Placement {
	alt := make(map[int]Placement, len(ins.Jobs))
	for k := range ins.Jobs {
		j := &ins.Jobs[k]
		r := int(math.Ceil(j.Release - sched.Eps))
		d := int(math.Floor(j.Deadline + sched.Eps))
		if d > horizon {
			d = horizon
		}
		best := 0
		for i := 1; i < ins.Machines; i++ {
			if j.Proc[i] < j.Proc[best] {
				best = i
			}
		}
		alt[j.ID] = Placement{Machine: best, Start: r, Length: d - r, Speed: j.Proc[best] / float64(d-r)}
	}
	return alt
}
