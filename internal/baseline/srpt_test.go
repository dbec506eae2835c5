package baseline

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core/srpt"
	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestPreemptiveSRPTHandTrace(t *testing.T) {
	// Single machine: A (p=4, r=0), B (p=1, r=1). B preempts A.
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{4}},
		{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
	}}
	res, err := srpt.Run(ins, srpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}); err != nil {
		t.Fatalf("invalid outcome: %v", err)
	}
	if res.Outcome.Completed[1] != 2 || res.Outcome.Completed[0] != 5 {
		t.Fatalf("completions %v, want B@2 A@5", res.Outcome.Completed)
	}
	// Job 0 must have exactly two intervals: [0,1) and [2,5).
	var segs []sched.Interval
	for _, iv := range res.Outcome.Intervals {
		if iv.Job == 0 {
			segs = append(segs, iv)
		}
	}
	if len(segs) != 2 {
		t.Fatalf("job 0 ran in %d segments, want 2 (preempted once)", len(segs))
	}
	m, err := sched.ComputeMetrics(ins, res.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TotalFlow-6) > 1e-9 {
		t.Fatalf("flow %v, want 6 (matches the SRPT lower bound)", m.TotalFlow)
	}
}

func TestPreemptiveSRPTNoPreemptionForLargerJob(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{2}},
		{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{5}},
	}}
	res, err := srpt.Run(ins, srpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range res.Outcome.Intervals {
		if iv.Job == 0 && iv.End != 2 {
			t.Fatalf("running job was preempted by a larger one: %+v", iv)
		}
	}
}

func TestPreemptiveSRPTMatchesBoundOnSingleMachine(t *testing.T) {
	// On one machine, preemptive SRPT is optimal: its flow must equal
	// lowerbound.SRPTBound exactly.
	for seed := int64(0); seed < 10; seed++ {
		cfg := workload.DefaultConfig(50, 1, seed)
		cfg.Load = 1.1
		ins := workload.Random(cfg)
		res, err := srpt.Run(ins, srpt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			t.Fatal(err)
		}
		want := lowerbound.SRPTBound(ins)
		if math.Abs(m.TotalFlow-want) > 1e-6*(1+want) {
			t.Fatalf("seed %d: SRPT flow %v != bound %v", seed, m.TotalFlow, want)
		}
	}
}

func TestPreemptiveSRPTBeatsNonPreemptiveGreedy(t *testing.T) {
	f := func(seed int64) bool {
		cfg := workload.DefaultConfig(120, 2, seed)
		cfg.Load = 1.2
		cfg.Sizes = workload.SizePareto
		ins := workload.Random(cfg)
		res, err := srpt.Run(ins, srpt.Options{})
		if err != nil {
			return false
		}
		if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{AllowPreemption: true}); err != nil {
			return false
		}
		non, err := GreedySPT(ins)
		if err != nil {
			return false
		}
		mp, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			return false
		}
		mn, err := sched.ComputeMetrics(ins, non)
		if err != nil {
			return false
		}
		// Preemption should never be (much) worse than the equivalent
		// non-preemptive greedy on heavy-tailed overload.
		return mp.TotalFlow <= mn.TotalFlow*1.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPreemptiveSRPTValidatorRejectsWithoutFlag(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{4}},
		{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
	}}
	res, err := srpt.Run(ins, srpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{}); err == nil {
		t.Fatal("validator accepted a preempted schedule without AllowPreemption")
	}
}
