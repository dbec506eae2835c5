package srpt

import (
	"math"
	"testing"

	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/workload"
)

func job(id int, release float64, proc ...float64) sched.Job {
	return sched.Job{ID: id, Release: release, Weight: 1, Deadline: sched.NoDeadline, Proc: proc}
}

func TestSRPTHandTrace(t *testing.T) {
	// Single machine: A (p=4, r=0), B (p=1, r=1). B preempts A.
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{job(0, 0, 4), job(1, 1, 1)}}
	res, err := Run(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcome
	if err := sched.ValidateOutcome(ins, out, sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}); err != nil {
		t.Fatalf("invalid outcome: %v", err)
	}
	if out.Completed[1] != 2 || out.Completed[0] != 5 {
		t.Fatalf("completions %v, want B@2 A@5", out.Completed)
	}
	if res.Preemptions != 1 {
		t.Fatalf("preemptions %d, want 1", res.Preemptions)
	}
	m, err := sched.ComputeMetrics(ins, out)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TotalFlow-6) > 1e-9 {
		t.Fatalf("flow %v, want 6", m.TotalFlow)
	}
}

func TestSRPTNoPreemptionForLargerJob(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{job(0, 0, 2), job(1, 1, 5)}}
	res, err := Run(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 0 {
		t.Fatalf("running job was preempted by a larger one (%d preemptions)", res.Preemptions)
	}
}

func TestSRPTSingleMachineMatchesBound(t *testing.T) {
	// On one machine, preemptive SRPT is optimal: its flow must equal
	// lowerbound.SRPTBound exactly.
	for seed := int64(0); seed < 10; seed++ {
		cfg := workload.DefaultConfig(50, 1, seed)
		cfg.Load = 1.1
		ins := workload.Random(cfg)
		res, err := Run(ins, Options{})
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

func TestWSRPTSingleMachineUnitWeightsMatchesBound(t *testing.T) {
	// With unit weights on one machine the migratory policy degenerates to
	// exact preemptive SRPT, which is optimal: flow == SRPTBound.
	for seed := int64(0); seed < 8; seed++ {
		cfg := workload.DefaultConfig(60, 1, seed)
		cfg.Load = 1.2
		ins := workload.Random(cfg)
		res, err := RunWeighted(ins, WeightedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{AllowMigration: true, RequireUnitSpeed: true}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			t.Fatal(err)
		}
		want := lowerbound.SRPTBound(ins)
		if math.Abs(m.TotalFlow-want) > 1e-6*(1+want) {
			t.Fatalf("seed %d: WSRPT flow %v != bound %v", seed, m.TotalFlow, want)
		}
	}
}

func TestWSRPTMigratesAndConserves(t *testing.T) {
	// Overloaded weighted workloads on unrelated machines: migrations must
	// actually occur somewhere in the sweep, every outcome must validate
	// under AllowMigration, and the engine's conservation audit (run inside
	// Close) must hold across all preemption chains.
	migrations := 0
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.DefaultConfig(300, 4, seed)
		cfg.Load = 1.4
		cfg.Weighted = true
		cfg.Sizes = workload.SizePareto
		ins := workload.Random(cfg)
		res, err := RunWeighted(ins, WeightedOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{AllowMigration: true, RequireUnitSpeed: true}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Outcome.Completed) != len(ins.Jobs) {
			t.Fatalf("seed %d: %d of %d jobs completed (WSRPT never rejects)", seed, len(res.Outcome.Completed), len(ins.Jobs))
		}
		migrations += res.Migrations
	}
	if migrations == 0 {
		t.Fatal("no migrations across the sweep: the migratory path is dead")
	}
}

func TestWSRPTPrefersHeavyJobs(t *testing.T) {
	// One machine, two simultaneous same-size jobs, one 10× heavier: the
	// heavy job must run first under weighted-SRPT.
	heavy := sched.Job{ID: 0, Release: 0, Weight: 10, Deadline: sched.NoDeadline, Proc: []float64{4}}
	light := sched.Job{ID: 1, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{4}}
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{heavy, light}}
	res, err := RunWeighted(ins, WeightedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Completed[0] != 4 || res.Outcome.Completed[1] != 8 {
		t.Fatalf("completions %v, want heavy@4 light@8", res.Outcome.Completed)
	}
}

// TestSRPTBeatsFlowtimeOnAdversary sanity-checks the comparator's purpose:
// on the Lemma 1 family (where non-preemptive algorithms provably suffer),
// preemptive SRPT must not cost more total flow than the §2 algorithm's
// served-plus-rejected accounting. This is the qualitative shape E15
// quantifies.
func TestSRPTBeatsFlowtimeOnAdversary(t *testing.T) {
	ins := workload.Lemma1Instance(12, 0.5)
	res, err := Run(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sched.ComputeMetrics(ins, res.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	want := lowerbound.SRPTBound(ins)
	if math.Abs(m.TotalFlow-want) > 1e-6*(1+want) {
		t.Fatalf("single-machine SRPT flow %v != bound %v", m.TotalFlow, want)
	}
}
