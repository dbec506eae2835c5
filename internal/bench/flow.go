package bench

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core/flowtime"
	"repro/internal/core/srpt"
	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// flowWorkloads are the named workload families used across the flow-time
// experiments.
func flowWorkloads(n, m int, seed int64) map[string]*sched.Instance {
	uni := workload.DefaultConfig(n, m, seed)
	uni.Load = 0.9

	par := workload.DefaultConfig(n, m, seed+1000)
	par.Sizes = workload.SizePareto
	par.MaxSize = 100
	par.Load = 1.0

	bur := workload.DefaultConfig(n, m, seed+2000)
	bur.Arrivals = workload.ArrivalsBursty
	bur.BurstSize = 20
	bur.Load = 1.0

	return map[string]*sched.Instance{
		"poisson-uniform": workload.Random(uni),
		"poisson-pareto":  workload.Random(par),
		"bursty":          workload.Random(bur),
	}
}

var flowWorkloadOrder = []string{"poisson-uniform", "poisson-pareto", "bursty"}

// flowLB is the honest flow-time OPT lower bound used on large instances:
// max(Σ_j min_i p_ij, pooled-SRPT, dual/2). The dual objective lower-bounds
// LP* ≤ 2·OPT; the pooled speed-m SRPT relaxation is exact for the
// preemptive single-machine relaxation.
func flowLB(ins *sched.Instance, dual *flowtime.DualReport) float64 {
	lb := lowerbound.MinProcSum(ins)
	if s := lowerbound.SRPTBound(ins); s > lb {
		lb = s
	}
	if dual != nil {
		if d := dual.Objective() / 2; d > lb {
			lb = d
		}
	}
	return lb
}

func init() {
	register(Experiment{
		ID: "E1", Kind: "table",
		Title: "Flow time: rejection budget and competitive ratio vs ε",
		Claim: "Theorem 1: ≤2ε jobs rejected, 2((1+ε)/ε)²-competitive",
		Run:   runE1,
	})
	register(Experiment{
		ID: "E2", Kind: "figure",
		Title: "Flow time vs ε trade-off curve",
		Claim: "Theorem 1: cost decreases as the rejection budget grows",
		Run:   runE2,
	})
	register(Experiment{
		ID: "E3", Kind: "table",
		Title: "Flow time: algorithm A vs no-rejection and speed-augmented baselines",
		Claim: "§1: rejection alone can replace speed augmentation",
		Run:   runE3,
	})
	register(Experiment{
		ID: "E4", Kind: "figure",
		Title: "Lemma 1 adversarial family: immediate rejection vs algorithm A",
		Claim: "Lemma 1: immediate-rejection policies are Ω(√Δ)-competitive",
		Run:   runE4,
	})
	register(Experiment{
		ID: "E5", Kind: "table",
		Title: "Dual-fitting audit on small instances (LP-exact)",
		Claim: "Lemma 4 + weak duality: dual feasible, dual ≤ LP*, flow ≤ ((1+ε)/ε)²·dual",
		Run:   runE5,
	})
	register(Experiment{
		ID: "E11", Kind: "table",
		Title: "Ablation: rejection rules 1/2 individually disabled",
		Claim: "§2: both rejection rules contribute",
		Run:   runE11,
	})
}

func runE1(cfg Config) (fmt.Stringer, error) {
	n := cfg.scale(2000, 200)
	t := stats.NewTable("E1 — Theorem 1 budget & ratio (n="+fmt.Sprint(n)+", m=4)",
		"workload", "eps", "flow", "rejected%", "budget 2ε%", "ratio vs LB", "theory 2((1+ε)/ε)²")
	for _, name := range flowWorkloadOrder {
		for _, eps := range []float64{0.1, 0.2, 1.0 / 3, 0.5} {
			ins := flowWorkloads(n, 4, 7)[name]
			res, err := flowtime.Run(ins, flowtime.Options{Epsilon: eps, TrackDual: true})
			if err != nil {
				return nil, err
			}
			m, err := sched.ComputeMetrics(ins, res.Outcome)
			if err != nil {
				return nil, err
			}
			lb := flowLB(ins, res.Dual)
			t.AddRowf(name, eps,
				m.TotalFlow,
				100*float64(m.Rejected)/float64(len(ins.Jobs)),
				100*2*eps,
				m.TotalFlow/lb,
				2*math.Pow((1+eps)/eps, 2))
		}
	}
	return t, nil
}

func runE2(cfg Config) (fmt.Stringer, error) {
	n := cfg.scale(1500, 150)
	cfgW := workload.DefaultConfig(n, 4, 13)
	cfgW.Load = 1.1
	cfgW.Sizes = workload.SizePareto
	cfgW.MaxSize = 60
	ins := workload.Random(cfgW)
	s := stats.NewSeries("E2 — flow & rejection vs ε (overloaded Pareto workload)",
		"eps", "flow/LB", "rejected%", "budget%")
	for _, eps := range []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9} {
		res, err := flowtime.Run(ins, flowtime.Options{Epsilon: eps, TrackDual: true})
		if err != nil {
			return nil, err
		}
		m, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			return nil, err
		}
		lb := flowLB(ins, res.Dual)
		s.Add(eps, m.TotalFlow/lb,
			100*float64(m.Rejected)/float64(len(ins.Jobs)),
			100*2*eps)
	}
	return s, nil
}

func runE3(cfg Config) (fmt.Stringer, error) {
	n := cfg.scale(2000, 200)
	t := stats.NewTable("E3 — algorithm A vs baselines (flow per job; lower is better)",
		"workload", "policy", "mean flow", "p99 flow", "max flow", "rejected%")
	type policy struct {
		name string
		run  func(*sched.Instance) (*sched.Outcome, error)
	}
	policies := []policy{
		{"A(ε=0.2)", func(ins *sched.Instance) (*sched.Outcome, error) {
			r, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.2})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}},
		{"greedy-SPT", baseline.GreedySPT},
		{"FCFS", baseline.FCFS},
		{"least-loaded", baseline.LeastLoaded},
		{"speedaug(εs=0.2,εr=0.2)", func(ins *sched.Instance) (*sched.Outcome, error) {
			return baseline.SpeedAugmented(ins, 0.2, 0.2)
		}},
		{"preemptive-SRPT (ref)", func(ins *sched.Instance) (*sched.Outcome, error) {
			r, err := srpt.Run(ins, srpt.Options{})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}},
	}
	for _, name := range flowWorkloadOrder {
		for _, p := range policies {
			ins := flowWorkloads(n, 4, 21)[name]
			out, err := p.run(ins)
			if err != nil {
				return nil, err
			}
			m, err := sched.ComputeMetrics(ins, out)
			if err != nil {
				return nil, err
			}
			t.AddRowf(name, p.name, m.MeanFlow, m.P99Flow, m.MaxFlow,
				100*float64(m.Rejected)/float64(len(ins.Jobs)))
		}
	}
	return t, nil
}

func runE4(cfg Config) (fmt.Stringer, error) {
	ls := []float64{4, 8, 16, 32, 64}
	if cfg.Quick {
		ls = []float64{4, 8, 16}
	}
	s := stats.NewSeries("E4 — Lemma 1 family: ratio vs Δ=L²",
		"sqrt(Δ)=L", "immediate/ADV", "A(ε=0.5)/ADV", "0.3·√Δ ref")
	for _, l := range ls {
		ins := workload.Lemma1Instance(l, 0.5)
		adv := workload.Lemma1Adversary(ins)
		mAdv, err := sched.ComputeMetrics(ins, adv)
		if err != nil {
			return nil, err
		}
		imm, err := baseline.ImmediateReject(ins, 0.5, 3)
		if err != nil {
			return nil, err
		}
		mImm, err := sched.ComputeMetrics(ins, imm)
		if err != nil {
			return nil, err
		}
		res, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.5})
		if err != nil {
			return nil, err
		}
		mA, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			return nil, err
		}
		s.Add(l, mImm.TotalFlow/mAdv.TotalFlow, mA.TotalFlow/mAdv.TotalFlow, 0.3*l)
	}
	return s, nil
}

func runE5(cfg Config) (fmt.Stringer, error) {
	seeds := cfg.scale(10, 3)
	slots := cfg.scale(40, 24)
	eps := 0.5
	t := stats.NewTable("E5 — dual-fitting audit (n=6, m=2, LP-exact)",
		"seed", "LP*", "dual obj", "OPT(brute)", "flow(A)", "flow ≤ ((1+ε)/ε)²·dual", "dual ≤ LP*", "max constr excess")
	for seed := int64(0); seed < int64(seeds); seed++ {
		c := workload.DefaultConfig(6, 2, seed)
		c.MaxSize = 8
		ins := workload.Random(c)
		res, err := flowtime.Run(ins, flowtime.Options{Epsilon: eps, TrackDual: true})
		if err != nil {
			return nil, err
		}
		m, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			return nil, err
		}
		lp, err := lowerbound.FlowLP(ins, slots)
		if err != nil {
			return nil, err
		}
		opt, err := lowerbound.BruteForceFlow(ins)
		if err != nil {
			return nil, err
		}
		dual := res.Dual.Objective()
		v := res.Dual.CheckFeasibility(ins, 16)
		t.AddRowf(seed, lp, dual, opt, m.TotalFlow,
			okMark(m.TotalFlow <= math.Pow((1+eps)/eps, 2)*dual+1e-9),
			okMark(dual <= lp+1e-6),
			v.Excess)
	}
	return t, nil
}

func runE11(cfg Config) (fmt.Stringer, error) {
	n := cfg.scale(1500, 150)
	t := stats.NewTable("E11 — rejection-rule ablation (ε=0.3)",
		"workload", "variant", "flow", "rejected%", "rule1", "rule2")
	variants := []struct {
		name   string
		d1, d2 bool
	}{
		{"both rules", false, false},
		{"rule 1 only", false, true},
		{"rule 2 only", true, false},
		{"no rejection", true, true},
	}
	for _, name := range flowWorkloadOrder {
		for _, v := range variants {
			ins := flowWorkloads(n, 4, 99)[name]
			res, err := flowtime.Run(ins, flowtime.Options{
				Epsilon: 0.3, DisableRule1: v.d1, DisableRule2: v.d2,
			})
			if err != nil {
				return nil, err
			}
			m, err := sched.ComputeMetrics(ins, res.Outcome)
			if err != nil {
				return nil, err
			}
			t.AddRowf(name, v.name, m.TotalFlow,
				100*float64(m.Rejected)/float64(len(ins.Jobs)),
				res.Rule1Rejections, res.Rule2Rejections)
		}
	}
	return t, nil
}

func okMark(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}
