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
// All baselines share one deterministic event-loop engine and produce
// audited sched.Outcome values.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/eventq"
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

// Config parameterizes the shared engine.
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
	if epsS <= 0 || epsR <= 0 {
		return nil, fmt.Errorf("baseline: epsS and epsR must be positive")
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
	return Run(ins, Config{
		Dispatch: DispatchBacklog, Order: OrderSPT, Speed: 1,
		ImmediateReject: func(t float64, j *sched.Job, seen int, meanProc float64, rejected int) bool {
			if seen == 0 {
				return false
			}
			if float64(rejected+1) > eps*float64(seen+1) {
				return false
			}
			return j.MinProc() > outlier*meanProc
		},
	})
}

type bmachine struct {
	pending   *ostree.Flat
	queueWork float64 // Σ p over pending (on this machine)

	running  int
	runStart float64
	runEnd   float64
	runSpeed float64
	runSeq   int
	victims  int
}

func (m *bmachine) remnant(t float64) float64 {
	if m.running == -1 {
		return 0
	}
	if t >= m.runEnd {
		return 0
	}
	return m.runEnd - t
}

// Run executes the configured baseline on the instance.
func Run(ins *sched.Instance, cfg Config) (*sched.Outcome, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	if cfg.Speed <= 0 {
		return nil, fmt.Errorf("baseline: speed must be positive, got %v", cfg.Speed)
	}
	out := sched.NewOutcomeSized(len(ins.Jobs))
	// Events carry compact job indices (always < n, so they fit the int32
	// payload regardless of the instance's ID space); index keys and the
	// outcome keep real job IDs.
	ix := ins.Index()
	machines := make([]*bmachine, ins.Machines)
	for i := range machines {
		machines[i] = &bmachine{pending: ostree.NewFlat(), running: -1}
	}
	var q eventq.Queue
	q.Grow(2 * len(ins.Jobs))
	for k := range ins.Jobs {
		q.Push(eventq.Event{Time: ins.Jobs[k].Release, Kind: eventq.KindArrival, Job: int32(k), Machine: -1})
	}
	key := func(j *sched.Job, i int) ostree.Key {
		switch cfg.Order {
		case OrderFCFS:
			return ostree.Key{P: j.Release, Release: j.Release, ID: j.ID}
		case OrderHDF:
			return ostree.Key{P: -j.Weight / j.Proc[i], Release: j.Release, ID: j.ID}
		default:
			return ostree.Key{P: j.Proc[i], Release: j.Release, ID: j.ID}
		}
	}
	seq := 0
	startNext := func(i int, t float64) {
		m := machines[i]
		k, ok := m.pending.DeleteMin()
		if !ok {
			return
		}
		j := ix.JobByID(k.ID)
		m.queueWork -= j.Proc[i]
		speed := cfg.Speed
		if cfg.JobSpeed != nil {
			speed = cfg.JobSpeed(j, i)
		}
		m.running = k.ID
		m.runStart = t
		m.runEnd = t + j.Proc[i]/speed
		m.runSpeed = speed
		m.victims = 0
		seq++
		m.runSeq = seq
		q.Push(eventq.Event{Time: m.runEnd, Kind: eventq.KindCompletion, Job: int32(ix.Of(k.ID)), Machine: int32(i), Version: int32(seq)})
	}

	var seen, rejected int
	var sumProc float64
	for q.Len() > 0 {
		e := q.Pop()
		switch e.Kind {
		case eventq.KindArrival:
			j := ix.Job(int(e.Job))
			if cfg.ImmediateReject != nil {
				mean := 0.0
				if seen > 0 {
					mean = sumProc / float64(seen)
				}
				if cfg.ImmediateReject(e.Time, j, seen, mean, rejected) {
					out.Rejected[j.ID] = e.Time
					rejected++
					seen++
					sumProc += j.MinProc()
					continue
				}
			}
			seen++
			sumProc += j.MinProc()
			best, bestCost := 0, math.Inf(1)
			for i := 0; i < ins.Machines; i++ {
				m := machines[i]
				var cost float64
				switch cfg.Dispatch {
				case DispatchBacklog:
					cost = m.queueWork + m.remnant(e.Time) + j.Proc[i]
				case DispatchLeastLoaded:
					cost = m.queueWork + m.remnant(e.Time)
				case DispatchMinProc:
					cost = j.Proc[i]
				}
				if cost < bestCost {
					best, bestCost = i, cost
				}
			}
			m := machines[best]
			out.Assigned[j.ID] = best
			m.pending.Insert(key(j, best))
			m.queueWork += j.Proc[best]
			if m.running != -1 && cfg.Rule1Threshold > 0 {
				m.victims++
				if m.victims >= cfg.Rule1Threshold {
					// reject the running job, speed-augmented style
					if e.Time > m.runStart+sched.Eps {
						out.Intervals = append(out.Intervals, sched.Interval{
							Job: m.running, Machine: best, Start: m.runStart, End: e.Time, Speed: m.runSpeed,
						})
					}
					out.Rejected[m.running] = e.Time
					m.running = -1
					startNext(best, e.Time)
				}
			}
			if m.running == -1 {
				startNext(best, e.Time)
			}
		case eventq.KindCompletion:
			m := machines[e.Machine]
			id := ix.ID(int(e.Job))
			if m.running != id || m.runSeq != int(e.Version) {
				continue
			}
			out.Intervals = append(out.Intervals, sched.Interval{
				Job: id, Machine: int(e.Machine), Start: m.runStart, End: e.Time, Speed: m.runSpeed,
			})
			out.Completed[id] = e.Time
			m.running = -1
			startNext(int(e.Machine), e.Time)
		}
	}
	return out, nil
}
