package repro

// Cross-module integration tests: the full pipeline (generate → serialize →
// schedule → audit → measure → bound) and direct checks of the paper's
// theorem statements against exact optima on small instances.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core/energymin"
	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/core/srpt"
	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTheorem1AgainstExactOPT is the sharpest end-to-end check in the repo:
// on instances small enough for exact brute force, the algorithm's total
// flow time never exceeds 2((1+ε)/ε)² times the true offline optimum.
func TestTheorem1AgainstExactOPT(t *testing.T) {
	for _, eps := range []float64{0.25, 0.5} {
		bound := 2 * math.Pow((1+eps)/eps, 2)
		for seed := int64(0); seed < 20; seed++ {
			cfg := workload.DefaultConfig(7, 2, seed)
			cfg.MaxSize = 10
			cfg.Load = 1.2
			ins := workload.Random(cfg)
			res, err := flowtime.Run(ins, flowtime.Options{Epsilon: eps})
			if err != nil {
				t.Fatal(err)
			}
			m, err := sched.ComputeMetrics(ins, res.Outcome)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := lowerbound.BruteForceFlow(ins)
			if err != nil {
				t.Fatal(err)
			}
			if m.TotalFlow > bound*opt+1e-9 {
				t.Fatalf("eps=%v seed=%d: flow %v > %v·OPT (OPT=%v): Theorem 1 violated",
					eps, seed, m.TotalFlow, bound, opt)
			}
		}
	}
}

// TestTheorem3AgainstExactOPT: the energy greedy never exceeds α^α times
// the exact discrete optimum on tiny instances.
func TestTheorem3AgainstExactOPT(t *testing.T) {
	for _, alpha := range []float64{1.5, 2, 3} {
		for seed := int64(0); seed < 8; seed++ {
			ins := workload.RandomDeadline(workload.DeadlineConfig{
				N: 3, M: 2, Seed: seed, Horizon: 7, MinVol: 1, MaxVol: 4, Slack: 2, Alpha: alpha,
			})
			res, err := energymin.Run(ins, energymin.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := lowerbound.BruteForceEnergy(ins, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.Energy > energymin.TheoryRatio(alpha)*opt+1e-9 {
				t.Fatalf("α=%v seed=%d: greedy %v > α^α·OPT = %v: Theorem 3 violated",
					alpha, seed, res.Energy, energymin.TheoryRatio(alpha)*opt)
			}
		}
	}
}

// TestPipelineRoundTrip exercises generate → JSON → load → schedule with
// every policy → audit → metrics, all in memory.
func TestPipelineRoundTrip(t *testing.T) {
	cfg := workload.DefaultConfig(120, 3, 42)
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 2

	var buf bytes.Buffer
	if err := trace.WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}

	type policy struct {
		name string
		mode sched.ValidateMode
		run  func(*sched.Instance) (*sched.Outcome, error)
	}
	policies := []policy{
		{"flowtime", sched.ValidateMode{RequireUnitSpeed: true}, func(in *sched.Instance) (*sched.Outcome, error) {
			r, err := flowtime.Run(in, flowtime.Options{Epsilon: 0.3})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}},
		{"speedscale", sched.ValidateMode{}, func(in *sched.Instance) (*sched.Outcome, error) {
			r, err := speedscale.Run(in, speedscale.Options{Epsilon: 0.3})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}},
		{"greedy", sched.ValidateMode{RequireUnitSpeed: true}, baseline.GreedySPT},
		{"fcfs", sched.ValidateMode{RequireUnitSpeed: true}, baseline.FCFS},
		{"srpt", sched.ValidateMode{RequireUnitSpeed: true, AllowPreemption: true}, func(in *sched.Instance) (*sched.Outcome, error) {
			r, err := srpt.Run(in, srpt.Options{})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}},
		{"wsrpt", sched.ValidateMode{RequireUnitSpeed: true, AllowMigration: true}, func(in *sched.Instance) (*sched.Outcome, error) {
			r, err := srpt.RunWeighted(in, srpt.WeightedOptions{})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}},
	}
	for _, p := range policies {
		out, err := p.run(loaded)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if err := sched.ValidateOutcome(loaded, out, p.mode); err != nil {
			t.Fatalf("%s: audit failed: %v", p.name, err)
		}
		m, err := sched.ComputeMetrics(loaded, out)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if lb := lowerbound.SRPTBound(loaded); m.TotalFlow < lb-1e-6 && m.Rejected == 0 {
			t.Fatalf("%s: flow %v beat the SRPT lower bound %v without rejecting", p.name, m.TotalFlow, lb)
		}
	}
}

// TestDeterminism: identical inputs produce byte-identical outcomes across
// runs for every core algorithm.
func TestDeterminism(t *testing.T) {
	cfg := workload.DefaultConfig(300, 4, 17)
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 2

	run := func() [3]string {
		var outs [3]string
		r1, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.3, TrackDual: true})
		if err != nil {
			t.Fatal(err)
		}
		var b1 bytes.Buffer
		if err := trace.WriteOutcome(&b1, r1.Outcome); err != nil {
			t.Fatal(err)
		}
		outs[0] = b1.String()
		r2, err := speedscale.Run(ins, speedscale.Options{Epsilon: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var b2 bytes.Buffer
		if err := trace.WriteOutcome(&b2, r2.Outcome); err != nil {
			t.Fatal(err)
		}
		outs[1] = b2.String()
		dl := workload.RandomDeadline(workload.DeadlineConfig{
			N: 40, M: 2, Seed: 3, Horizon: 60, MinVol: 1, MaxVol: 5, Slack: 2, Alpha: 2,
		})
		r3, err := energymin.Run(dl, energymin.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var b3 bytes.Buffer
		if err := trace.WriteOutcome(&b3, r3.Outcome); err != nil {
			t.Fatal(err)
		}
		outs[2] = b3.String()
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("algorithm %d is non-deterministic", i)
		}
	}
}

// TestRejectionNeverLosesJobs: across all three cores, every job ends in
// exactly one of Completed/Rejected even on degenerate instances.
func TestRejectionNeverLosesJobs(t *testing.T) {
	// Degenerate: all jobs identical and simultaneous.
	jobs := make([]sched.Job, 30)
	for i := range jobs {
		jobs[i] = sched.Job{ID: i, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 1}}
	}
	ins := &sched.Instance{Machines: 2, Jobs: jobs}
	res, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Outcome.Completed) + len(res.Outcome.Rejected); got != 30 {
		t.Fatalf("flowtime lost jobs: %d/30", got)
	}
	ins2 := *ins
	ins2.Alpha = 2
	res2, err := speedscale.Run(&ins2, speedscale.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res2.Outcome.Completed) + len(res2.Outcome.Rejected); got != 30 {
		t.Fatalf("speedscale lost jobs: %d/30", got)
	}
}
