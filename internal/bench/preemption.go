package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core/flowtime"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID: "E15", Kind: "table",
		Title: "Price of non-preemption: engine-hosted SRPT vs the non-preemptive policies",
		Claim: "§1 + lower bounds: the hardness of non-preemptive scheduling is exactly the gap preemption closes; rejection substitutes for it",
		Run:   runE15,
	})
}

// runE15 tabulates Compare with the paper's §2 algorithm (flowtime) on
// four workload families; Comparison explains the ratios.
func runE15(cfg Config) (fmt.Stringer, error) {
	const eps = 0.2
	type family struct {
		name string
		ins  *sched.Instance
	}
	n := cfg.scale(4000, 800)
	var families []family
	{
		c := workload.DefaultConfig(n, 4, 11)
		c.Load = 0.9
		families = append(families, family{"random uniform", workload.Random(c)})
	}
	{
		c := workload.DefaultConfig(n, 4, 12)
		c.Load = 0.95
		c.Sizes = workload.SizePareto
		c.MaxSize = 200
		families = append(families, family{"heavy-tail Pareto", workload.Random(c)})
	}
	{
		c := workload.DefaultConfig(n, 4, 13)
		c.Sizes = workload.SizeBimodal
		c.Arrivals = workload.ArrivalsBursty
		c.BurstSize = 40
		c.Load = 1.0
		families = append(families, family{"tie-heavy bursty", workload.Random(c)})
	}
	families = append(families, family{"adversarial Lemma 1",
		workload.Lemma1Instance(float64(cfg.scale(24, 10)), eps)})

	t := stats.NewTable(fmt.Sprintf("E15 — price of non-preemption (ε=%v)", eps),
		"family", "n", "greedy/SRPT", "A/SRPT", "SRPT/LB", "rejected", "preempts", "audits")
	for _, f := range families {
		c, err := Compare(f.ins, "flowtime", eps)
		if err != nil {
			return nil, err
		}
		pre := c.Preemptive.TotalFlow
		t.AddRowf(f.name, len(f.ins.Jobs),
			c.Greedy.TotalFlow/pre, c.Policy.TotalFlow/pre, pre/c.Bound,
			c.Policy.Rejected, c.Preemptions, okMark(c.Audit == nil))
	}
	return t, nil
}

// Comparison is the price of non-preemption on one instance: the metrics of
// non-preemptive greedy SPT (serves every job), of a non-preemptive policy
// with rejections and of its preemptive counterpart, plus the pooled SRPT
// lower bound.
//
// Two ratios matter. Greedy over preemptive is the clean price of
// non-preemption: both serve every job, so it is what the ability to preempt
// alone buys. Policy over preemptive shows how far rejection substitutes for
// preemption; since rejected jobs pay flow only until their rejection
// instant (the paper's accounting), it can dip below 1 under overload.
type Comparison struct {
	Greedy, Policy, Preemptive sched.Metrics
	// Preemptions and Migrations count the preemptive comparator's
	// (per-machine SRPT never migrates).
	Preemptions, Migrations int
	// Bound is lowerbound.SRPTBound, a bound on total flow only.
	Bound float64
	// Audit is the first failed outcome audit, nil when all three pass.
	Audit error
}

// Compare runs the comparison for policy on ins: flowtime pairs with
// engine-hosted per-machine SRPT (total flow time), wflow with migratory
// weighted SRPT (weighted flow time); eps is the policy's rejection
// parameter. Every outcome is audited under its model at unit speed, and
// its metrics are computed either way.
func Compare(ins *sched.Instance, policy string, eps float64) (*Comparison, error) {
	var (
		c        Comparison
		pol, pre *sched.Outcome
		preMode  sched.ValidateMode
	)
	switch policy {
	case "flowtime":
		res, err := flowtime.Run(ins, flowtime.Options{Epsilon: eps})
		if err != nil {
			return nil, err
		}
		pres, err := srpt.Run(ins, srpt.Options{})
		if err != nil {
			return nil, err
		}
		pol, pre, c.Preemptions = res.Outcome, pres.Outcome, pres.Preemptions
		preMode = sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}
	case "wflow":
		res, err := wflow.Run(ins, wflow.Options{Epsilon: eps})
		if err != nil {
			return nil, err
		}
		pres, err := srpt.RunWeighted(ins, srpt.WeightedOptions{})
		if err != nil {
			return nil, err
		}
		pol, pre, c.Preemptions, c.Migrations = res.Outcome, pres.Outcome, pres.Preemptions, pres.Migrations
		preMode = sched.ValidateMode{AllowMigration: true, RequireUnitSpeed: true}
	default:
		return nil, fmt.Errorf("bench: %q has no preemptive counterpart (flowtime or wflow)", policy)
	}
	greedy, err := baseline.GreedySPT(ins)
	if err != nil {
		return nil, err
	}
	unit := sched.ValidateMode{RequireUnitSpeed: true}
	for _, r := range []struct {
		what string
		out  *sched.Outcome
		mode sched.ValidateMode
		m    *sched.Metrics
	}{
		{"non-preemptive", pol, unit, &c.Policy},
		{"preemptive", pre, preMode, &c.Preemptive},
		{"greedy", greedy, unit, &c.Greedy},
	} {
		if err := sched.ValidateOutcome(ins, r.out, r.mode); err != nil && c.Audit == nil {
			c.Audit = fmt.Errorf("%s outcome failed audit: %w", r.what, err)
		}
		if *r.m, err = sched.ComputeMetrics(ins, r.out); err != nil {
			return nil, err
		}
	}
	c.Bound = lowerbound.SRPTBound(ins)
	return &c, nil
}
