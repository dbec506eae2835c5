package bench

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core/energymin"
	"repro/internal/core/speedscale"
	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID: "E6", Kind: "table",
		Title: "Weighted flow + energy: rejected weight and ratio vs (ε, α)",
		Claim: "Theorem 2: ≤ε·W weight rejected, O((1+1/ε)^(α/(α−1)))-competitive; Lemma 6: dual feasible",
		Run:   runE6,
	})
	register(Experiment{
		ID: "E7", Kind: "figure",
		Title: "Weighted flow + energy: cost split vs α",
		Claim: "Theorem 2: speed scaling balances energy against flow",
		Run:   runE7,
	})
	register(Experiment{
		ID: "E8", Kind: "table",
		Title: "Energy minimization: greedy configuration-LP vs AVR vs solo LB",
		Claim: "Theorem 3: greedy is λ/(1−µ)-competitive for (λ,µ)-smooth energy (Definition 1), O(α^α); its dual feasible",
		Run:   runE8,
	})
	register(Experiment{
		ID: "E9", Kind: "figure",
		Title: "Lemma 2 adaptive adversary vs greedy: ratio growth in α",
		Claim: "Lemma 2: every deterministic algorithm is ≥(α/9)^α-competitive",
		Run:   runE9,
	})
}

func weightedWorkload(n int, seed int64, alpha float64) *sched.Instance {
	cfg := workload.DefaultConfig(n, 3, seed)
	cfg.Weighted = true
	cfg.Load = 1.0
	ins := workload.Random(cfg)
	ins.Alpha = alpha
	return ins
}

func runE6(cfg Config) (fmt.Stringer, error) {
	n := cfg.scale(800, 120)
	t := stats.NewTable("E6 — Theorem 2 budget & ratio (n="+fmt.Sprint(n)+", m=3)",
		"alpha", "eps", "wflow+energy", "ratio vs solo LB", "ratio (γ=1)", "vs fixed-speed HDF", "rejW%", "budget ε%", "rejW ≤ εW", "envelope (1+1/ε)^(α/(α−1))", "Lemma 6 dual (first 60 jobs)")
	for _, alpha := range []float64{1.5, 2, 3} {
		ins := weightedWorkload(n, 31, alpha)
		fixed, err := baseline.FixedSpeedHDF(ins, alpha)
		if err != nil {
			return nil, err
		}
		mFixed, err := sched.ComputeMetrics(ins, fixed)
		if err != nil {
			return nil, err
		}
		for _, eps := range []float64{0.2, 0.5} {
			res, err := speedscale.Run(ins, speedscale.Options{Epsilon: eps})
			if err != nil {
				return nil, err
			}
			m, err := sched.ComputeMetrics(ins, res.Outcome)
			if err != nil {
				return nil, err
			}
			res1, err := speedscale.Run(ins, speedscale.Options{Epsilon: eps, Gamma: 1})
			if err != nil {
				return nil, err
			}
			m1, err := sched.ComputeMetrics(ins, res1.Outcome)
			if err != nil {
				return nil, err
			}
			lemma6, err := lemma6Audit(ins, eps)
			if err != nil {
				return nil, err
			}
			lb := lowerbound.SoloFlowEnergy(ins)
			t.AddRowf(alpha, eps,
				m.WeightedFlowPlusEnergy(),
				m.WeightedFlowPlusEnergy()/lb,
				m1.WeightedFlowPlusEnergy()/lb,
				m.WeightedFlowPlusEnergy()/mFixed.WeightedFlowPlusEnergy(),
				100*res.RejectedWeight/ins.TotalWeight(),
				100*eps,
				okMark(res.RejectedWeight <= eps*ins.TotalWeight()),
				speedscale.TheoryEnvelope(eps, alpha),
				lemma6)
		}
	}
	return t, nil
}

// lemma6Prefix is how many of an E6 instance's jobs the Lemma 6 audit
// replays: the audit samples every (job, machine) pair at every job's
// release and finish instants and sums the potential over every job at each,
// so its cost grows as n³·m. Run and audit take 30–45 ms at 60 jobs on a
// 2-core Xeon; by that growth E6's 800 would take over a minute.
const lemma6Prefix = 60

// lemma6Audit runs speedscale with duals tracked on the first lemma6Prefix
// jobs of ins and checks the dual constraint of Lemma 6 at every sampled
// instant, and that every job's fractional weight stays within [0, w_j].
func lemma6Audit(ins *sched.Instance, eps float64) (string, error) {
	prefix := &sched.Instance{Machines: ins.Machines, Alpha: ins.Alpha, Jobs: ins.Jobs[:min(lemma6Prefix, len(ins.Jobs))]}
	res, err := speedscale.Run(prefix, speedscale.Options{Epsilon: eps, TrackDual: true})
	if err != nil {
		return "", err
	}
	if v := res.Dual.CheckFeasibility(prefix, 24); v.Excess > 1e-9 {
		return okMarkWhy(false, v.String()), nil
	}
	if err := res.Dual.MonotoneV(prefix, 32); err != nil {
		return okMarkWhy(false, err.Error()), nil
	}
	return okMark(true), nil
}

func runE7(cfg Config) (fmt.Stringer, error) {
	n := cfg.scale(600, 100)
	s := stats.NewSeries("E7 — cost split vs α (ε=0.3)",
		"alpha", "ratio vs solo LB", "energy share", "wflow share")
	for _, alpha := range []float64{1.3, 1.5, 1.8, 2, 2.5, 3} {
		ins := weightedWorkload(n, 47, alpha)
		res, err := speedscale.Run(ins, speedscale.Options{Epsilon: 0.3})
		if err != nil {
			return nil, err
		}
		m, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			return nil, err
		}
		total := m.WeightedFlowPlusEnergy()
		lb := lowerbound.SoloFlowEnergy(ins)
		s.Add(alpha, total/lb, m.Energy/total, m.WeightedFlow/total)
	}
	return s, nil
}

func runE8(cfg Config) (fmt.Stringer, error) {
	n := cfg.scale(120, 30)
	horizon := cfg.scale(200, 60)
	t := stats.NewTable("E8 — deadline energy: greedy vs AVR vs solo LB",
		"alpha", "slack", "greedy", "AVR", "solo LB", "greedy/LB", "AVR/greedy", "α^α", "λ/(1−µ)",
		"λ smooth", "dual vs full window", "n=3: greedy ≤ λ/(1−µ)·OPT")
	for _, alpha := range []float64{1.5, 2, 3} {
		lambda, mu := energymin.LambdaSufficient(alpha), energymin.Mu(alpha)
		ratio := energymin.RatioFromSmooth(lambda, mu)
		smooth := okMark(smoothOnPairs(alpha, lambda, mu))
		for _, slack := range []float64{1.2, 2, 4} {
			ins := workload.RandomDeadline(workload.DeadlineConfig{
				N: n, M: 2, Seed: 5, Horizon: horizon,
				MinVol: 1, MaxVol: 8, Slack: slack, Alpha: alpha,
			})
			greedy, err := energymin.Run(ins, energymin.Options{})
			if err != nil {
				return nil, err
			}
			avr, err := energymin.Run(ins, energymin.Options{FullWindowOnly: true})
			if err != nil {
				return nil, err
			}
			audit, err := energymin.AuditConfiguration(ins, energymin.Options{}, energymin.FullWindowConfiguration(ins, horizon))
			if err != nil {
				return nil, err
			}
			tiny := workload.RandomDeadline(workload.DeadlineConfig{
				N: 3, M: 2, Seed: 5, Horizon: 7, MinVol: 1, MaxVol: 4, Slack: slack, Alpha: alpha,
			})
			tinyGreedy, err := energymin.Run(tiny, energymin.Options{})
			if err != nil {
				return nil, err
			}
			opt, err := lowerbound.BruteForceEnergy(tiny, 7)
			if err != nil {
				return nil, err
			}
			lb := lowerbound.SoloEnergy(ins)
			t.AddRowf(alpha, slack, greedy.Energy, avr.Energy, lb,
				greedy.Energy/lb, avr.Energy/greedy.Energy, energymin.TheoryRatio(alpha), ratio,
				smooth,
				okMarkWhy(audit.GreedyExcess <= 0 && audit.ConfigExcess <= 0,
					fmt.Sprintf("greedy excess %v, configuration excess %v", audit.GreedyExcess, audit.ConfigExcess)),
				okMark(tinyGreedy.Energy <= ratio*opt+1e-9))
		}
	}
	return t, nil
}

// smoothOnPairs reports whether the smooth inequality of Definition 1 holds
// with constants (λ, µ) on the single-pair family a = (x), b = (1) for x on
// a grid over [0, 4α], which holds the worst pair: it is the family
// LambdaSufficient maximizes over, so a λ below its maximum fails here.
func smoothOnPairs(alpha, lambda, mu float64) bool {
	const steps = 400
	for k := 0; k <= steps; k++ {
		x := 4 * alpha * float64(k) / steps
		if !energymin.CheckSmooth(alpha, lambda, mu, []float64{x}, []float64{1}) {
			return false
		}
	}
	return true
}

func runE9(cfg Config) (fmt.Stringer, error) {
	alphas := []float64{2, 3, 4, 5, 6}
	if cfg.Quick {
		alphas = []float64{2, 3, 4}
	}
	s := stats.NewSeries("E9 — Lemma 2 duel: measured ratio vs bounds",
		"alpha", "greedy/ADV", "(α/9)^α", "α^α")
	for _, alpha := range alphas {
		horizon := int(math.Pow(3, alpha+1))
		sc, err := energymin.New(energymin.Options{
			Machines: 1, Alpha: alpha, Horizon: horizon, LengthGridRatio: 1.25,
		})
		if err != nil {
			return nil, err
		}
		id := 0
		var placeErr error
		_, adv := workload.Lemma2Duel(alpha, func(r, d, v float64) workload.Commitment {
			j := &sched.Job{ID: id, Release: r, Weight: 1, Deadline: d, Proc: []float64{v}}
			id++
			pl, err := sc.Place(j)
			if err != nil {
				placeErr = err
				return workload.Commitment{Start: r, End: d}
			}
			return workload.Commitment{Start: float64(pl.Start), End: float64(pl.Start + pl.Length)}
		})
		if placeErr != nil {
			return nil, placeErr
		}
		s.Add(alpha, sc.Energy()/adv, energymin.Lemma2Bound(alpha), energymin.TheoryRatio(alpha))
	}
	return s, nil
}
