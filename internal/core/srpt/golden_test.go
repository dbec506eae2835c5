package srpt

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/eventq"
	"repro/internal/ostree"
	"repro/internal/sched"
	"repro/internal/workload"
)

// legacyPreemptiveSRPT is the pre-engine baseline.PreemptiveSRPT event loop,
// preserved verbatim (its id lookups aside, which go through sched.IDs) as
// the reference of the golden equivalence test below. The engine-hosted
// policy in srpt.go must reproduce its outcomes bit for bit, which is what
// licensed deleting it from internal/baseline.
func legacyPreemptiveSRPT(ins *sched.Instance) (*sched.Outcome, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	out := sched.NewOutcomeSized(len(ins.Jobs))
	var ix sched.IDs
	ix.Build(ins.Jobs)

	type pmachine struct {
		waiting *ostree.Tree // Key.P = frozen remaining time

		running  int
		runStart float64
		runRem   float64 // remaining at runStart
		runSeq   int
	}
	machines := make([]*pmachine, ins.Machines)
	for i := range machines {
		machines[i] = &pmachine{waiting: ostree.New(uint64(0x5e11) + uint64(i)), running: -1}
	}
	var q eventq.Queue
	q.Grow(2 * len(ins.Jobs))
	for k := range ins.Jobs {
		q.Push(eventq.Event{Time: ins.Jobs[k].Release, Kind: eventq.KindArrival, Job: int32(k), Machine: -1})
	}
	seq := 0
	start := func(i int, t float64, id int, rem float64) {
		m := machines[i]
		m.running = id
		m.runStart = t
		m.runRem = rem
		seq++
		m.runSeq = seq
		q.Push(eventq.Event{Time: t + rem, Kind: eventq.KindCompletion, Job: int32(ix.Of(id)), Machine: int32(i), Version: int32(seq)})
	}
	startNext := func(i int, t float64) {
		m := machines[i]
		if key, ok := m.waiting.DeleteMin(); ok {
			start(i, t, key.ID, key.P)
		}
	}
	for q.Len() > 0 {
		e := q.Pop()
		switch e.Kind {
		case eventq.KindArrival:
			j := &ins.Jobs[e.Job]
			best, bestCost := 0, math.Inf(1)
			for i := 0; i < ins.Machines; i++ {
				m := machines[i]
				cost := m.waiting.SumP() + j.Proc[i]
				if m.running != -1 {
					cost += m.runRem - (e.Time - m.runStart)
				}
				if cost < bestCost {
					best, bestCost = i, cost
				}
			}
			m := machines[best]
			out.Assigned[j.ID] = best
			p := j.Proc[best]
			if m.running == -1 {
				start(best, e.Time, j.ID, p)
				break
			}
			curRem := m.runRem - (e.Time - m.runStart)
			if p < curRem-sched.Eps {
				// Preempt: bank the running job's progress.
				if e.Time > m.runStart+sched.Eps {
					out.Intervals = append(out.Intervals, sched.Interval{
						Job: m.running, Machine: best, Start: m.runStart, End: e.Time, Speed: 1,
					})
				}
				m.waiting.Insert(ostree.Key{P: curRem, Release: ins.Jobs[ix.Of(m.running)].Release, ID: m.running})
				start(best, e.Time, j.ID, p)
			} else {
				m.waiting.Insert(ostree.Key{P: p, Release: j.Release, ID: j.ID})
			}
		case eventq.KindCompletion:
			m := machines[e.Machine]
			id := ins.Jobs[e.Job].ID
			if m.running != id || m.runSeq != int(e.Version) {
				continue // preempted; stale completion
			}
			out.Intervals = append(out.Intervals, sched.Interval{
				Job: id, Machine: int(e.Machine), Start: m.runStart, End: e.Time, Speed: 1,
			})
			out.Completed[id] = e.Time
			m.running = -1
			startNext(int(e.Machine), e.Time)
		}
	}
	return out, nil
}

// goldenInstances is the PR 2 equivalence matrix: random, tie-heavy and
// adversarial families. Crossed with the two dispatch modes below it yields
// the 18 configurations the migration is pinned on.
func goldenInstances() []*sched.Instance {
	var out []*sched.Instance
	// Random unrelated machines under overload (preemption-heavy).
	for seed := int64(0); seed < 5; seed++ {
		cfg := workload.DefaultConfig(500, 5, seed)
		cfg.Load = 1.3
		out = append(out, workload.Random(cfg))
	}
	// Tie-heavy: bursty bimodal — many equal releases and equal processing
	// times, the tie-break-sensitive regime.
	for seed := int64(8); seed < 10; seed++ {
		cfg := workload.DefaultConfig(400, 4, seed)
		cfg.Sizes = workload.SizeBimodal
		cfg.Arrivals = workload.ArrivalsBursty
		cfg.BurstSize = 30
		cfg.Load = 1.5
		out = append(out, workload.Random(cfg))
	}
	// Adversarial Lemma 1 families (single machine, big jobs ahead of a
	// stream of mice — maximal preemption pressure).
	out = append(out, workload.Lemma1Instance(10, 0.4))
	out = append(out, workload.Lemma1Instance(6, 0.3))
	return out
}

// TestGoldenEquivalenceWithLegacyLoop pins the engine migration: across the
// 18-config matrix (9 instances × sequential/parallel dispatch) the
// engine-hosted policy must produce sched.Outcomes bit-identical to the
// legacy private event loop — same intervals in the same order, same
// completion, rejection and assignment maps.
func TestGoldenEquivalenceWithLegacyLoop(t *testing.T) {
	for n, ins := range goldenInstances() {
		want, err := legacyPreemptiveSRPT(ins)
		if err != nil {
			t.Fatalf("instance %d: legacy: %v", n, err)
		}
		for _, workers := range []int{1, 4} {
			res, err := Run(ins, Options{ParallelDispatch: workers})
			if err != nil {
				t.Fatalf("instance %d workers %d: %v", n, workers, err)
			}
			if !reflect.DeepEqual(want, res.Outcome) {
				t.Fatalf("instance %d workers %d: engine-hosted SRPT diverges from the legacy loop", n, workers)
			}
		}
	}
}
