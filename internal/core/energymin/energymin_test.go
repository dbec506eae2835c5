package energymin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/workload"
)

func deadlineInstance(n int, seed int64, slack float64) *sched.Instance {
	return workload.RandomDeadline(workload.DeadlineConfig{
		N: n, M: 2, Seed: seed, Horizon: 60, MinVol: 1, MaxVol: 6, Slack: slack, Alpha: 2,
	})
}

func mustRun(t *testing.T, ins *sched.Instance, opt Options) *Result {
	t.Helper()
	res, err := Run(ins, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mode := sched.ValidateMode{AllowParallel: true, RequireDeadlines: true}
	if err := sched.ValidateOutcome(ins, res.Outcome, mode); err != nil {
		t.Fatalf("invalid outcome: %v", err)
	}
	return res
}

func TestSingleJobUsesMinimumSpeed(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Alpha: 2, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: 4, Proc: []float64{4}},
	}}
	res := mustRun(t, ins, Options{})
	pl := res.Placements[0]
	if pl.Length != 4 || pl.Speed != 1 {
		t.Fatalf("placement %+v, want full window at speed 1", pl)
	}
	if math.Abs(res.Energy-4) > 1e-9 {
		t.Fatalf("energy %v, want 4", res.Energy)
	}
}

func TestSecondJobAvoidsLoadedSlots(t *testing.T) {
	// Job 0 fills [0,2). Job 1's window [0,4) should land in [2,4) where
	// the machine is empty.
	ins := &sched.Instance{Machines: 1, Alpha: 2, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: 2, Proc: []float64{2}},
		{ID: 1, Release: 0, Weight: 1, Deadline: 4, Proc: []float64{2}},
	}}
	res := mustRun(t, ins, Options{})
	pl := res.Placements[1]
	if pl.Start != 2 || pl.Length != 2 {
		t.Fatalf("job 1 placed %+v, want [2,4)", pl)
	}
}

func TestPicksCheaperMachine(t *testing.T) {
	ins := &sched.Instance{Machines: 2, Alpha: 2, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: 4, Proc: []float64{8, 2}},
	}}
	res := mustRun(t, ins, Options{})
	if res.Placements[0].Machine != 1 {
		t.Fatalf("job placed on machine %d, want 1 (4× smaller volume)", res.Placements[0].Machine)
	}
}

func TestEnergyTelescopes(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ins := deadlineInstance(40, seed, 3)
		res := mustRun(t, ins, Options{})
		// Marginal costs telescope to the final energy; the sweep-based
		// metric over intervals must agree.
		m, err := sched.ComputeMetrics(ins, res.Outcome)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Energy-res.Energy) > 1e-6*(1+res.Energy) {
			t.Fatalf("seed %d: telescoped %v vs sweep %v", seed, res.Energy, m.Energy)
		}
	}
}

func TestGreedyRespectsSoloBoundAndTheoryEnvelope(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		ins := deadlineInstance(30, seed, 2)
		res := mustRun(t, ins, Options{})
		lb := lowerbound.SoloEnergy(ins)
		if res.Energy < lb-1e-9 {
			t.Fatalf("seed %d: energy %v below solo bound %v", seed, res.Energy, lb)
		}
		// α^α = 4 at α=2 bounds the ratio to the true optimum; the solo
		// bound is weaker than OPT, so allow slack above 4 but catch
		// gross regressions.
		if res.Energy > 12*lb {
			t.Fatalf("seed %d: energy %v vs solo bound %v: ratio %v implausibly large",
				seed, res.Energy, lb, res.Energy/lb)
		}
	}
}

func TestGreedyNearBruteForceOnTinyInstances(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ins := workload.RandomDeadline(workload.DeadlineConfig{
			N: 3, M: 1, Seed: seed, Horizon: 8, MinVol: 1, MaxVol: 3, Slack: 2.5, Alpha: 2,
		})
		res := mustRun(t, ins, Options{})
		opt, err := lowerbound.BruteForceEnergy(ins, 8)
		if err != nil {
			t.Fatal(err)
		}
		if res.Energy < opt-1e-9 {
			t.Fatalf("seed %d: greedy %v beat brute force %v", seed, res.Energy, opt)
		}
		if res.Energy > TheoryRatio(2)*opt+1e-9 {
			t.Fatalf("seed %d: greedy %v exceeds α^α·OPT = %v", seed, res.Energy, 4*opt)
		}
	}
}

func TestAVRFullWindowOnly(t *testing.T) {
	ins := deadlineInstance(25, 3, 2)
	res := mustRun(t, ins, Options{FullWindowOnly: true})
	var ix sched.IDs
	ix.Build(ins.Jobs)
	for id, pl := range res.Placements {
		j := &ins.Jobs[ix.Of(id)]
		r := int(math.Ceil(j.Release - sched.Eps))
		d := int(math.Floor(j.Deadline + sched.Eps))
		if pl.Start != r || pl.Length != d-r {
			t.Fatalf("job %d: AVR placement %+v not the full window [%d,%d)", id, pl, r, d)
		}
	}
}

func TestLengthGridContainsExtremes(t *testing.T) {
	s, err := New(Options{Machines: 1, Alpha: 2, Horizon: 100, LengthGridRatio: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	ls := s.lengths(37)
	if ls[0] != 1 || ls[len(ls)-1] != 37 {
		t.Fatalf("grid %v must span 1..37", ls)
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatalf("grid %v not strictly increasing", ls)
		}
	}
	if len(ls) > 15 {
		t.Fatalf("grid %v too dense for ratio 1.5", ls)
	}
	if all := s.lengths(5); len(all) != 5 {
		// ratio ≤ 1 behaviour is exercised through Options zero value
		t.Logf("grid-with-ratio lengths(5) = %v", all)
	}
	s2, _ := New(Options{Machines: 1, Alpha: 2, Horizon: 10})
	if got := s2.lengths(5); len(got) != 5 {
		t.Fatalf("exhaustive lengths = %v, want 1..5", got)
	}
}

func TestGridVsExhaustiveCloseInEnergy(t *testing.T) {
	ins := deadlineInstance(30, 5, 3)
	exact := mustRun(t, ins, Options{})
	grid := mustRun(t, ins, Options{LengthGridRatio: 1.3})
	if grid.Energy < exact.Energy-1e-9 {
		t.Fatalf("grid search beat exhaustive search: %v < %v", grid.Energy, exact.Energy)
	}
	if grid.Energy > 2*exact.Energy {
		t.Fatalf("grid search lost too much: %v vs %v", grid.Energy, exact.Energy)
	}
}

func TestInfeasibleJobRejected(t *testing.T) {
	s, err := New(Options{Machines: 1, Alpha: 2, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	j := &sched.Job{ID: 0, Release: 3.6, Weight: 1, Deadline: 3.9, Proc: []float64{1}}
	if _, err := s.Place(j); err == nil {
		t.Fatal("expected infeasibility error for sub-slot window")
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := New(Options{Machines: 0, Alpha: 2, Horizon: 5}); err == nil {
		t.Fatal("accepted 0 machines")
	}
	if _, err := New(Options{Machines: 1, Alpha: 1, Horizon: 5}); err == nil {
		t.Fatal("accepted alpha=1")
	}
	if _, err := New(Options{Machines: 1, Alpha: 2, Horizon: 0}); err == nil {
		t.Fatal("accepted 0 horizon")
	}
}

func TestSmoothInequalityAlpha2Exact(t *testing.T) {
	// (3, 1/2)-smoothness of s² is exact. Targeted short sequences first —
	// the violating region for too-small λ lives at b ≈ a/2 with n = 1,
	// which uniform random sampling almost never hits.
	for x := 0.1; x < 8; x += 0.1 {
		if !CheckSmooth(2, LambdaExact2, Mu(2), []float64{x}, []float64{1}) {
			t.Fatalf("λ=3 violated at single pair a=%v b=1", x)
		}
	}
	// Tightness: equality at (a,b) = (2,1); λ slightly below 3 must fail.
	if math.Abs(SmoothLHS(2, []float64{2}, []float64{1})-SmoothRHS(2, 3, 0.5, []float64{2}, []float64{1})) > 1e-9 {
		t.Fatal("(2,1) is no longer the equality case")
	}
	if CheckSmooth(2, 2.99, Mu(2), []float64{2}, []float64{1}) {
		t.Fatal("λ=2.99 should be insufficient at α=2")
	}
	f := func(raw []float64, braw []float64) bool {
		a := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = math.Abs(v)
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
				a[i] = 1
			}
			a[i] = math.Mod(a[i], 100)
		}
		b := make([]float64, len(braw))
		for i, v := range braw {
			b[i] = math.Abs(v)
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				b[i] = 1
			}
			b[i] = math.Mod(b[i], 100)
		}
		return CheckSmooth(2, LambdaExact2, Mu(2), a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLambdaSufficient(t *testing.T) {
	if got := LambdaSufficient(2); math.Abs(got-3) > 1e-6 {
		t.Fatalf("LambdaSufficient(2) = %v, want 3", got)
	}
	l3 := LambdaSufficient(3)
	if l3 < 19 || l3 > 20 {
		t.Fatalf("LambdaSufficient(3) = %v, want ≈19.7", l3)
	}
	// Θ(α^(α−1)) growth: λ(α)/α^(α−1) stays within constant factors.
	for _, alpha := range []float64{2, 3, 4, 5} {
		ratio := LambdaSufficient(alpha) / math.Pow(alpha, alpha-1)
		if ratio < 0.5 || ratio > 8 {
			t.Fatalf("λ(%v)=%v not Θ(α^(α−1)): normalized %v", alpha, LambdaSufficient(alpha), ratio)
		}
	}
}

func TestSmoothInequalityWithSufficientLambda(t *testing.T) {
	// The certified λ(α) must hold on adversarial short sequences and
	// random long ones for several α.
	rng := rand.New(rand.NewSource(1))
	for _, alpha := range []float64{1.5, 2, 3, 4} {
		lambda := LambdaSufficient(alpha)
		mu := Mu(alpha)
		for x := 0.25; x < 5*alpha; x *= 1.5 {
			if !CheckSmooth(alpha, lambda, mu, []float64{x}, []float64{1}) {
				t.Fatalf("α=%v: certified λ=%v violated at a=%v b=1", alpha, lambda, x)
			}
		}
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(6)
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i] = rng.Float64() * 10
				b[i] = rng.Float64() * 10
			}
			if !CheckSmooth(alpha, lambda, mu, a, b) {
				t.Fatalf("α=%v: smooth inequality failed on a=%v b=%v", alpha, a, b)
			}
		}
	}
}

func TestTheoryHelpers(t *testing.T) {
	if TheoryRatio(2) != 4 {
		t.Fatalf("TheoryRatio(2) = %v", TheoryRatio(2))
	}
	if math.Abs(Lemma2Bound(9)-1) > 1e-9 {
		t.Fatalf("Lemma2Bound(9) = %v, want 1", Lemma2Bound(9))
	}
	if RatioFromSmooth(2, 0.5) != 4 {
		t.Fatalf("RatioFromSmooth(2, 1/2) = %v, want 4", RatioFromSmooth(2, 0.5))
	}
}

func TestDeadlinesAlwaysMet(t *testing.T) {
	f := func(seed int64, slackRaw uint8) bool {
		slack := 1.2 + float64(slackRaw%30)/10
		ins := deadlineInstance(25, seed, slack)
		res, err := Run(ins, Options{})
		if err != nil {
			return false
		}
		mode := sched.ValidateMode{AllowParallel: true, RequireDeadlines: true}
		return sched.ValidateOutcome(ins, res.Outcome, mode) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLemma2DuelRatioGrows(t *testing.T) {
	// Drive the adaptive adversary against the greedy scheduler for small
	// α and check the measured ratio is ≥ 1 and grows with α.
	ratios := map[float64]float64{}
	for _, alpha := range []float64{2, 3, 4} {
		horizon := int(math.Pow(3, alpha+1))
		s, err := New(Options{Machines: 1, Alpha: alpha, Horizon: horizon, LengthGridRatio: 1.25})
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		_, adv := workload.Lemma2Duel(alpha, func(r, d, v float64) workload.Commitment {
			j := &sched.Job{ID: id, Release: r, Weight: 1, Deadline: d, Proc: []float64{v}}
			id++
			pl, err := s.Place(j)
			if err != nil {
				t.Fatalf("duel placement failed: %v", err)
			}
			return workload.Commitment{Start: float64(pl.Start), End: float64(pl.Start + pl.Length)}
		})
		ratios[alpha] = s.Energy() / adv
		if ratios[alpha] <= 0 {
			t.Fatalf("alpha=%v: degenerate ratio", alpha)
		}
	}
	t.Logf("duel ratios: %v", ratios)
}
