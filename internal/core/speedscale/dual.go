package speedscale

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// DualReport records, per job, the execution facts needed to reconstruct the
// dual objects of the §3 analysis:
//
//   - λ_j = ε/(1+ε)·min_i λ_ij (fixed at dispatch),
//   - the fractional-weight potential V_i(t) = Σ_ℓ w_ℓ·q_iℓ(t)/p_iℓ over
//     jobs on machine i that are not yet definitively finished,
//   - u_i(t) = (ε/(γ(1+ε)(α−1)))^(1/(α−1))·V_i(t)^(1/α),
//
// and audits the dual constraint of Lemma 6:
//
//	λ_j/p_ij ≤ δ_ij(t−r_j+p_ij) + α·u_i(t)^(α−1) + α/(γ(α−1))·w_j^((α−1)/α).
type DualReport struct {
	Epsilon, Alpha, Gamma float64
	// Lambda maps job id -> λ_j.
	Lambda map[int]float64
	execs  map[int]*execRecord
}

type execRecord struct {
	machine   int
	release   float64
	weight    float64
	proc      float64 // p_ij on the dispatched machine
	started   bool
	start     float64
	speed     float64
	finish    float64 // completion or rejection time
	remnant   float64 // volume left at rejection (0 for completed)
	defFinish float64 // definitive-finish time
	finished  bool
}

// newDualReport builds an empty report; hint presizes the per-job maps for a
// stream of about that many dispatches.
func newDualReport(eps, alpha, gamma float64, hint int) *DualReport {
	d := &DualReport{Epsilon: eps, Alpha: alpha, Gamma: gamma}
	if hint > 0 {
		d.Lambda = make(map[int]float64, hint)
		d.execs = make(map[int]*execRecord, hint)
	} else {
		d.Lambda = make(map[int]float64)
		d.execs = make(map[int]*execRecord)
	}
	return d
}

// execSlab is the allocator of a dual-tracked run's execRecords. Records are
// handed out from chunks that are never reallocated once full (a full chunk
// is dropped and a fresh one created), so the pointers in DualReport.execs
// stay valid while the run costs O(log n) record allocations instead of one
// per dispatch. It belongs to the policy, not the report: two runs that made
// the same decisions hand out equal reports however their storage was
// chunked.
type execSlab []execRecord

// dualSlabMin is the smallest execRecord chunk; later chunks double, so an
// unhinted run of n dispatches makes O(log n) chunk allocations.
const dualSlabMin = 64

// alloc returns a zeroed execRecord, starting a fresh chunk when the current
// one is full.
func (s *execSlab) alloc() *execRecord {
	if len(*s) == cap(*s) {
		n := 2 * cap(*s)
		if n < dualSlabMin {
			n = dualSlabMin
		}
		*s = make([]execRecord, 0, n)
	}
	*s = append(*s, execRecord{})
	return &(*s)[len(*s)-1]
}

func (d *DualReport) noteDispatch(e *execRecord, j *sched.Job, machine int, lambda float64) {
	d.Lambda[j.ID] = lambda
	e.machine = machine
	e.release = j.Release
	e.weight = j.Weight
	e.proc = j.Proc[machine]
	d.execs[j.ID] = e
}

func (d *DualReport) noteFinish(id, machine int, start, speed, finish, remnant, defFinish float64) {
	e := d.execs[id]
	e.started = true
	e.start = start
	e.speed = speed
	e.finish = finish
	e.remnant = remnant
	e.defFinish = defFinish
	e.finished = true
}

// fractionalWeight returns w_ℓ(t) = w·q(t)/p for one job at time t, zero
// outside [release, definitive finish).
func (e *execRecord) fractionalWeight(t float64) float64 {
	if t < e.release {
		return 0
	}
	if e.finished && t >= e.defFinish {
		return 0
	}
	q := e.proc
	if e.started && t >= e.start {
		if t >= e.finish && e.finished {
			q = e.remnant // frozen (0 for completed jobs)
		} else {
			q = e.proc - (t-e.start)*e.speed
			if q < 0 {
				q = 0
			}
		}
	}
	return e.weight * q / e.proc
}

// V evaluates the potential V_i(t).
func (d *DualReport) V(i int, t float64) float64 {
	var v float64
	for _, e := range d.execs {
		if e.machine == i {
			v += e.fractionalWeight(t)
		}
	}
	return v
}

// U evaluates u_i(t).
func (d *DualReport) U(i int, t float64) float64 {
	coef := math.Pow(d.Epsilon/(d.Gamma*(1+d.Epsilon)*(d.Alpha-1)), 1/(d.Alpha-1))
	return coef * math.Pow(d.V(i, t), 1/d.Alpha)
}

// Violation is the worst sampled excess of the Lemma 6 dual constraint.
type Violation struct {
	Job     int
	Machine int
	T       float64
	Excess  float64
}

func (v Violation) String() string {
	return fmt.Sprintf("job %d machine %d t=%v excess=%v", v.Job, v.Machine, v.T, v.Excess)
}

// CheckFeasibility samples the dual constraint for every (job, machine) pair
// at every job's release/finish instants plus extra evenly spaced samples.
func (d *DualReport) CheckFeasibility(ins *sched.Instance, extraSamples int) Violation {
	worst := Violation{Excess: math.Inf(-1)}
	var horizon float64
	var sampleTimes []float64
	for _, e := range d.execs {
		sampleTimes = append(sampleTimes, e.release, e.finish, e.defFinish)
		if e.defFinish > horizon {
			horizon = e.defFinish
		}
	}
	for s := 0; s <= extraSamples; s++ {
		sampleTimes = append(sampleTimes, horizon*float64(s)/float64(extraSamples+1))
	}
	tail := d.Alpha / (d.Gamma * (d.Alpha - 1))
	for k := range ins.Jobs {
		j := &ins.Jobs[k]
		lj := d.Lambda[j.ID]
		for i := 0; i < ins.Machines; i++ {
			delta := j.Weight / j.Proc[i]
			for _, t := range sampleTimes {
				if t < j.Release {
					continue
				}
				rhs := delta*(t-j.Release+j.Proc[i]) +
					d.Alpha*math.Pow(d.U(i, t), d.Alpha-1) +
					tail*math.Pow(j.Weight, (d.Alpha-1)/d.Alpha)
				excess := lj/j.Proc[i] - rhs
				if excess > worst.Excess {
					worst = Violation{Job: j.ID, Machine: i, T: t, Excess: excess}
				}
			}
		}
	}
	return worst
}

// MonotoneV checks Lemma 5's consequence on the executed trace: V_i at a
// fixed time never decreases when evaluated on growing prefixes of the
// instance. Here we check the cheap necessary condition that V_i(t) ≥ 0 and
// each job's contribution is within [0, w_j].
func (d *DualReport) MonotoneV(ins *sched.Instance, samples int) error {
	var horizon float64
	for _, e := range d.execs {
		if e.defFinish > horizon {
			horizon = e.defFinish
		}
	}
	for s := 0; s <= samples; s++ {
		t := horizon * float64(s) / float64(samples+1)
		for id, e := range d.execs {
			fw := e.fractionalWeight(t)
			if fw < -1e-9 || fw > e.weight+1e-9 {
				return fmt.Errorf("speedscale: job %d fractional weight %v outside [0, %v] at t=%v", id, fw, e.weight, t)
			}
		}
	}
	return nil
}
