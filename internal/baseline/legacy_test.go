package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/eventq"
	"repro/internal/ostree"
	"repro/internal/sched"
	"repro/internal/workload"
)

type legacyMachine struct {
	pending   *ostree.Flat
	queueWork float64 // Σ p over pending (on this machine)

	running  int
	runStart float64
	runEnd   float64
	runSpeed float64
	runSeq   int
	victims  int
}

func (m *legacyMachine) remnant(t float64) float64 {
	if m.running == -1 {
		return 0
	}
	if t >= m.runEnd {
		return 0
	}
	return m.runEnd - t
}

// legacyRun is the pre-engine baseline.Run event loop, kept verbatim (its id
// lookups aside, which go through sched.IDs) as the reference of the
// equivalence test below: the engine-hosted policy must reproduce its
// outcomes bit for bit.
func legacyRun(ins *sched.Instance, cfg Config) (*sched.Outcome, error) {
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
	var ix sched.IDs
	ix.Build(ins.Jobs)
	machines := make([]*legacyMachine, ins.Machines)
	for i := range machines {
		machines[i] = &legacyMachine{pending: ostree.NewFlat(), running: -1}
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
		j := &ins.Jobs[ix.Of(k.ID)]
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
			j := &ins.Jobs[e.Job]
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
			id := ins.Jobs[e.Job].ID
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

// equivalenceInstances is the matrix the engine migration is pinned on: 40
// seeded instances over one to five machines — uniform, heavy-tailed and
// bimodal sizes, Poisson and bursty arrivals, light to heavy load — of which
// every fifth is rounded to integer releases, sizes and weights (ties in
// every dispatch cost and service key), and every third has its ids
// scrambled over a sparse range so id tie-breaks disagree with feed order.
func equivalenceInstances() []*sched.Instance {
	var out []*sched.Instance
	for seed := int64(0); seed < 40; seed++ {
		cfg := workload.DefaultConfig(150+int(seed%4)*50, 1+int(seed%5), seed)
		cfg.Sizes = workload.SizeDist(seed % 3)
		cfg.Arrivals = workload.ArrivalModel(seed / 3 % 2)
		cfg.Load = 0.6 + 0.2*float64(seed%6)
		cfg.Weighted = seed%2 == 0
		ins := workload.Random(cfg)
		if seed%5 == 0 {
			for k := range ins.Jobs {
				j := &ins.Jobs[k]
				j.Release = math.Floor(j.Release)
				j.Weight = math.Ceil(j.Weight)
				for i := range j.Proc {
					j.Proc[i] = math.Ceil(j.Proc[i] / 4)
				}
			}
		}
		if seed%3 == 0 {
			rng := rand.New(rand.NewSource(seed))
			for k, v := range rng.Perm(len(ins.Jobs)) {
				ins.Jobs[k].ID = 7*v - 500
			}
		}
		out = append(out, ins)
	}
	return out
}

// TestEngineHostedMatchesLegacyLoop holds Run bit-identical to the legacy
// loop for every comparator the package exports: same intervals in the
// same order, same completion, rejection and assignment maps.
func TestEngineHostedMatchesLegacyLoop(t *testing.T) {
	const alpha, eps, epsS, epsR, outlier = 2.0, 0.3, 0.25, 0.5, 2.0
	configs := []struct {
		name string
		run  func(*sched.Instance) (*sched.Outcome, error)
		cfg  Config
	}{
		{"greedy", GreedySPT, Config{Dispatch: DispatchBacklog, Order: OrderSPT, Speed: 1}},
		{"fcfs", FCFS, Config{Dispatch: DispatchLeastLoaded, Order: OrderFCFS, Speed: 1}},
		{"leastloaded", LeastLoaded, Config{Dispatch: DispatchLeastLoaded, Order: OrderSPT, Speed: 1}},
		{"minproc", func(ins *sched.Instance) (*sched.Outcome, error) {
			return Run(ins, Config{Dispatch: DispatchMinProc, Order: OrderSPT, Speed: 1})
		}, Config{Dispatch: DispatchMinProc, Order: OrderSPT, Speed: 1}},
		{"speedaug", func(ins *sched.Instance) (*sched.Outcome, error) {
			return SpeedAugmented(ins, epsS, epsR)
		}, Config{Dispatch: DispatchBacklog, Order: OrderSPT, Speed: 1 + epsS, Rule1Threshold: 2}},
		{"fixedspeed-hdf", func(ins *sched.Instance) (*sched.Outcome, error) {
			return FixedSpeedHDF(ins, alpha)
		}, Config{Dispatch: DispatchBacklog, Order: OrderHDF, Speed: 1,
			JobSpeed: func(j *sched.Job, _ int) float64 { return math.Pow(j.Weight/(alpha-1), 1/alpha) }}},
		{"immediate", func(ins *sched.Instance) (*sched.Outcome, error) {
			return ImmediateReject(ins, eps, outlier)
		}, Config{Dispatch: DispatchBacklog, Order: OrderSPT, Speed: 1,
			ImmediateReject: func(t float64, j *sched.Job, seen int, meanProc float64, rejected int) bool {
				return seen > 0 && float64(rejected+1) <= eps*float64(seen+1) && j.MinProc() > outlier*meanProc
			}}},
	}
	var rejections int
	for n, ins := range equivalenceInstances() {
		for _, c := range configs {
			want, err := legacyRun(ins, c.cfg)
			if err != nil {
				t.Fatalf("instance %d %s: legacy: %v", n, c.name, err)
			}
			got, err := c.run(ins)
			if err != nil {
				t.Fatalf("instance %d %s: %v", n, c.name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("instance %d %s: engine-hosted outcome diverges from the legacy loop", n, c.name)
			}
			rejections += len(got.Rejected)
		}
	}
	if rejections == 0 {
		t.Fatal("no configuration rejected a job: the rejection paths went untested")
	}
}
