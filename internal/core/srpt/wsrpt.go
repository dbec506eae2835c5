package srpt

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/ostree"
	"repro/internal/sched"
)

// WeightedOptions configures a migratory weighted-SRPT run. The policy has
// no semantic tunables yet; knobs (preemption margins, machine affinities)
// can land here without breaking callers.
type WeightedOptions struct {
	// SizeHint preallocates per-job storage for a stream of about this many
	// jobs (see engine.Options.SizeHint). Zero is valid — storage grows on
	// demand — and the hint never changes outcomes. Batch RunWeighted
	// overrides it with the instance's exact job count.
	SizeHint int
	// EventQueue names the engine's event-queue implementation
	// (engine.EventQueueHeap or engine.EventQueueCalendar; empty selects the
	// heap). Performance-only: outcomes are bit-identical either way.
	EventQueue string
}

// WeightedResult is the audited output of a migratory weighted-SRPT run.
type WeightedResult struct {
	Outcome *sched.Outcome
	// Preemptions counts engine Preempt calls; Migrations counts resumes
	// on a machine different from the previous segment's.
	Preemptions int
	Migrations  int
}

// wpolicy implements engine.Policy as a migratory weighted-SRPT comparator:
// jobs carry a remaining-work *fraction* (machine-independent on unrelated
// machines), are kept in one global pool ordered by the density
// w_j/(frac_j·p̃_j) with p̃_j = min_i p_ij, and run wherever capacity frees
// up:
//
//   - whenever a machine is idle and the pool is non-empty, the
//     highest-density job starts on the idle machine where its remaining
//     fraction costs the least volume (argmin frac·p_ij, ties to the
//     lowest index);
//   - at an arrival with all machines busy, the pool's top preempts the
//     running job of strictly lowest density, which re-enters the pool with
//     its updated fraction — possibly to resume on a different machine
//     later (migration). The loop repeats while the top strictly beats the
//     weakest running job, and terminates because each preemption strictly
//     raises the minimum running density.
//
// With unit weights on a single machine the policy degenerates to exact
// preemptive SRPT. It is work-conserving and never rejects. Outcomes
// validate with sched.ValidateMode{AllowMigration: true}.
type wpolicy struct {
	c       *engine.Core
	res     *WeightedResult
	pending *ostree.Flat // Key.P = −w/(frac·p̃) (density order), global
	// Dense per-job state, indexed by compact job index.
	frac     []float64 // remaining fraction of the job's work, in (0,1]
	pmin     []float64 // cached min_i p_ij
	lastMach []int32   // machine of the previous segment, -1 before the first
}

// newPolicy is the policy's engine.Host: the pool is global, so only the
// dense per-job state is preallocated, for a run of about hint jobs.
func (opt WeightedOptions) newPolicy(_, hint int) (engine.Policy, func(*sched.Outcome) *WeightedResult) {
	p := &wpolicy{
		res:      &WeightedResult{},
		pending:  ostree.NewFlat(),
		frac:     make([]float64, 0, hint),
		pmin:     make([]float64, 0, hint),
		lastMach: make([]int32, 0, hint),
	}
	return p, p.result
}

func (p *wpolicy) Bind(c *engine.Core) { p.c = c }

func (p *wpolicy) Close() {}

func (p *wpolicy) Audit() error {
	if n := p.pending.Len(); n != 0 {
		return fmt.Errorf("srpt: internal invariant violated: %d jobs still pending at end of run", n)
	}
	return nil
}

// grow extends the dense slices to cover compact index jk (releases may
// decrease within sched.Eps, so pop order can locally differ from feed
// order).
func (p *wpolicy) grow(jk int) {
	for len(p.frac) <= jk {
		p.frac = append(p.frac, 0)
		p.pmin = append(p.pmin, 0)
		p.lastMach = append(p.lastMach, -1)
	}
}

// key freezes job jk's pool position at its current remaining fraction.
func (p *wpolicy) key(jk int) ostree.Key {
	j := p.c.Job(jk)
	return ostree.Key{P: -j.Weight / (p.frac[jk] * p.pmin[jk]), Release: j.Release, ID: j.ID}
}

func (p *wpolicy) OnArrival(t float64, jk int) {
	j := p.c.Job(jk)
	p.grow(jk)
	p.frac[jk] = 1
	p.pmin[jk] = j.MinProc()
	p.lastMach[jk] = -1
	p.pending.Insert(p.key(jk))
	p.balance(t)
}

// start runs job jk's remaining fraction on machine i and records its first
// dispatch.
func (p *wpolicy) start(i int, t float64, jk int) {
	j := p.c.Job(jk)
	if p.lastMach[jk] == -1 {
		p.c.Assign(jk, i)
	} else if int(p.lastMach[jk]) != i {
		p.res.Migrations++
	}
	p.lastMach[jk] = int32(i)
	vol := p.frac[jk] * j.Proc[i]
	p.c.Start(i, t, jk, vol, 1)
}

// balance is the scheduling step, run after every arrival and idle event:
// fill idle machines with the densest pending jobs, then preempt strictly
// weaker running jobs while the pool's top dominates.
func (p *wpolicy) balance(t float64) {
	for p.pending.Len() > 0 {
		top, _ := p.pending.Min() // most negative −density = highest density
		jk := p.c.IndexOf(top.ID)
		j := p.c.Job(jk)

		// Cheapest idle machine for the top job: argmin frac·p_ij.
		best, bestVol := -1, math.Inf(1)
		for i := 0; i < p.c.Machines(); i++ {
			if p.c.Machine(i).Idle() {
				if v := p.frac[jk] * j.Proc[i]; v < bestVol {
					best, bestVol = i, v
				}
			}
		}
		if best >= 0 {
			p.pending.Delete(top)
			p.start(best, t, jk)
			continue
		}

		// All machines busy: find the running job of lowest density at its
		// current remainder, lowest index on ties.
		worst, worstDensity := -1, math.Inf(1)
		for i := 0; i < p.c.Machines(); i++ {
			ms := p.c.Machine(i)
			rk := int(ms.Running)
			rem := ms.RunVol - (t - ms.RunStart)
			fracNow := rem / p.c.Job(rk).Proc[i]
			d := p.c.Job(rk).Weight / (fracNow * p.pmin[rk])
			if d < worstDensity {
				worst, worstDensity = i, d
			}
		}
		if -top.P <= worstDensity {
			return // nothing pending dominates a running job
		}
		rk, rem := p.c.Preempt(worst, t)
		p.res.Preemptions++
		p.frac[rk] = rem / p.c.Job(rk).Proc[worst]
		p.pending.Insert(p.key(rk))
		p.pending.Delete(top)
		p.start(worst, t, jk)
	}
}

func (p *wpolicy) OnCompletion(t float64, i, jk int)  {}
func (p *wpolicy) OnIdle(t float64, i int)            { p.balance(t) }
func (p *wpolicy) OnBookkeeping(t float64, i, jk int) {}
