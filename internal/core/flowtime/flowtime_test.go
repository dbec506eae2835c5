package flowtime

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/workload"
)

func mustRun(t *testing.T, ins *sched.Instance, opt Options) *Result {
	t.Helper()
	res, err := Run(ins, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
		t.Fatalf("invalid outcome: %v", err)
	}
	return res
}

// handInstance is the worked example used to verify the implementation step
// by step against the paper's rules (ε = 0.5 ⇒ Rule 1 threshold 2, Rule 2
// threshold 3):
//
//	t=0: job 0 (p=4) arrives, starts.
//	t=1: job 1 (p=1) arrives, queues. v₀=1.
//	t=2: job 2 (p=1) arrives. v₀=2 ⇒ Rule 1 rejects running job 0
//	     (remnant q=2); job 1 starts. c₀ hits 3 ⇒ Rule 2 rejects the
//	     largest pending job, job 2, on the spot.
//	t=3: job 1 completes.
func handInstance() *sched.Instance {
	return &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{4}},
		{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
		{ID: 2, Release: 2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
	}}
}

func TestHandTrace(t *testing.T) {
	ins := handInstance()
	res := mustRun(t, ins, Options{Epsilon: 0.5, TrackDual: true})
	o := res.Outcome
	if c, ok := o.Completed[1]; !ok || c != 3 {
		t.Fatalf("job 1 completion = %v, want 3", c)
	}
	if r, ok := o.Rejected[0]; !ok || r != 2 {
		t.Fatalf("job 0 rejection = %v, want 2 (Rule 1)", r)
	}
	if r, ok := o.Rejected[2]; !ok || r != 2 {
		t.Fatalf("job 2 rejection = %v, want 2 (Rule 2)", r)
	}
	if res.Rule1Rejections != 1 || res.Rule2Rejections != 1 {
		t.Fatalf("rule split = %d/%d, want 1/1", res.Rule1Rejections, res.Rule2Rejections)
	}
	m, err := sched.ComputeMetrics(ins, o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TotalFlow-4) > 1e-9 { // 2 + 2 + 0
		t.Fatalf("TotalFlow = %v, want 4", m.TotalFlow)
	}

	// Dual bookkeeping, hand-computed:
	// λ₀ = (1/3)·12 = 4, λ₁ = (1/3)·3 = 1, λ₂ = (1/3)·4.
	d := res.Dual
	wantLambda := map[int]float64{0: 4, 1: 1, 2: 4.0 / 3}
	for id, want := range wantLambda {
		if got := d.Lambda[id]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("λ_%d = %v, want %v", id, got, want)
		}
	}
	// C̃₀ = 2+2 = 4; C̃₁ = 3+2 = 5; C̃₂ = 2+2+(1+0+1) = 6.
	wantCT := map[int]float64{0: 4, 1: 5, 2: 6}
	for id, want := range wantCT {
		if got := d.CTilde[id]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("C̃_%d = %v, want %v", id, got, want)
		}
	}
	// ∫(|U|+|V|) = 12 = Σ(C̃_j − r_j).
	integral, ctsum := d.OccupancyIdentity(ins)
	if math.Abs(integral-12) > 1e-9 || math.Abs(ctsum-12) > 1e-9 {
		t.Fatalf("occupancy identity: ∫=%v Σ=%v, want 12 both", integral, ctsum)
	}
}

func TestSPTOrderWithinMachine(t *testing.T) {
	// Three jobs queued behind a long one: they must run shortest-first.
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{10}},
		{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{3}},
		{ID: 2, Release: 1.5, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
	}}
	res := mustRun(t, ins, Options{Epsilon: 0.2}) // thresholds 5 and 6: no rejections here
	o := res.Outcome
	if len(o.Rejected) != 0 {
		t.Fatalf("unexpected rejections: %v", o.Rejected)
	}
	if o.Completed[2] >= o.Completed[1] {
		t.Fatalf("SPT violated: job2 (p=1) completed at %v after job1 (p=3) at %v",
			o.Completed[2], o.Completed[1])
	}
	if o.Completed[0] != 10 {
		t.Fatalf("running job must not be preempted: completion %v, want 10", o.Completed[0])
	}
}

func TestDispatchPrefersFastMachine(t *testing.T) {
	ins := &sched.Instance{Machines: 2, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{100, 1}},
	}}
	res := mustRun(t, ins, Options{Epsilon: 0.3})
	if res.Outcome.Assigned[0] != 1 {
		t.Fatalf("job dispatched to machine %d, want 1 (λ is 100× smaller there)", res.Outcome.Assigned[0])
	}
}

func TestRejectionBudget(t *testing.T) {
	for _, eps := range []float64{0.1, 0.25, 0.5} {
		for seed := int64(0); seed < 5; seed++ {
			cfg := workload.DefaultConfig(400, 3, seed)
			cfg.Load = 1.2 // overload to force both rules to fire
			ins := workload.Random(cfg)
			res := mustRun(t, ins, Options{Epsilon: eps})
			frac := float64(len(res.Outcome.Rejected)) / float64(len(ins.Jobs))
			if frac > 2*eps+1e-9 {
				t.Fatalf("eps=%v seed=%d: rejected fraction %v exceeds 2ε=%v", eps, seed, frac, 2*eps)
			}
		}
	}
}

func TestBothRulesFireUnderOverload(t *testing.T) {
	cfg := workload.DefaultConfig(800, 2, 11)
	cfg.Load = 1.5
	cfg.Sizes = workload.SizePareto
	ins := workload.Random(cfg)
	res := mustRun(t, ins, Options{Epsilon: 0.3})
	if res.Rule1Rejections == 0 {
		t.Error("Rule 1 never fired on an overloaded heavy-tailed workload")
	}
	if res.Rule2Rejections == 0 {
		t.Error("Rule 2 never fired on an overloaded heavy-tailed workload")
	}
}

func TestAblationsDisableRules(t *testing.T) {
	cfg := workload.DefaultConfig(500, 2, 3)
	cfg.Load = 1.4
	ins := workload.Random(cfg)
	r1 := mustRun(t, ins, Options{Epsilon: 0.3, DisableRule2: true})
	if r1.Rule2Rejections != 0 {
		t.Fatal("Rule 2 fired while disabled")
	}
	r2 := mustRun(t, ins, Options{Epsilon: 0.3, DisableRule1: true})
	if r2.Rule1Rejections != 0 {
		t.Fatal("Rule 1 fired while disabled")
	}
	r0 := mustRun(t, ins, Options{Epsilon: 0.3, DisableRule1: true, DisableRule2: true})
	if len(r0.Outcome.Rejected) != 0 {
		t.Fatal("rejections with both rules disabled")
	}
	if len(r0.Outcome.Rejected) != 0 && len(r0.Outcome.Completed) != len(ins.Jobs) {
		t.Fatal("not all jobs completed with rejection disabled")
	}
}

func TestInvalidOptions(t *testing.T) {
	ins := handInstance()
	for _, eps := range []float64{0, 1, -0.5, 1.5} {
		if _, err := Run(ins, Options{Epsilon: eps}); err == nil {
			t.Fatalf("epsilon %v accepted", eps)
		}
	}
}

func TestThresholds(t *testing.T) {
	cases := []struct {
		eps    float64
		r1, r2 int
	}{
		{0.5, 2, 3}, {0.25, 4, 5}, {0.1, 10, 11}, {0.3, 4, 5}, {1.0 / 3, 3, 4},
	}
	for _, c := range cases {
		o := Options{Epsilon: c.eps}
		if got := o.Rule1Threshold(); got != c.r1 {
			t.Errorf("eps=%v: Rule1Threshold = %d, want %d", c.eps, got, c.r1)
		}
		if got := o.Rule2Threshold(); got != c.r2 {
			t.Errorf("eps=%v: Rule2Threshold = %d, want %d", c.eps, got, c.r2)
		}
	}
}

// TestDualFeasibility checks Lemma 4 numerically: the recorded dual solution
// satisfies every sampled dual constraint.
func TestDualFeasibility(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := workload.DefaultConfig(120, 3, seed)
		cfg.Load = 1.1
		ins := workload.Random(cfg)
		res := mustRun(t, ins, Options{Epsilon: 0.4, TrackDual: true})
		v := res.Dual.CheckFeasibility(ins, 16)
		if v.Excess > 1e-7 {
			t.Fatalf("seed %d: dual constraint violated: %v", seed, v)
		}
	}
}

// TestOccupancyIdentity checks the exact identity from the proof of
// Theorem 1: Σ_i ∫(|U_i|+|V_i|)dt = Σ_j (C̃_j − r_j).
func TestOccupancyIdentity(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := workload.DefaultConfig(200, 2, seed)
		cfg.Load = 1.3
		ins := workload.Random(cfg)
		res := mustRun(t, ins, Options{Epsilon: 0.3, TrackDual: true})
		integral, ctsum := res.Dual.OccupancyIdentity(ins)
		if math.Abs(integral-ctsum) > 1e-6*(1+ctsum) {
			t.Fatalf("seed %d: ∫occ=%v != ΣC̃−r=%v", seed, integral, ctsum)
		}
	}
}

// TestCompetitiveBoundViaDual checks the end-to-end inequality of the proof:
// the algorithm's total flow time is at most ((1+ε)/ε)² times the dual
// objective (which in turn lower-bounds the LP optimum ≤ 2·OPT).
func TestCompetitiveBoundViaDual(t *testing.T) {
	for _, eps := range []float64{0.25, 0.5} {
		for seed := int64(0); seed < 6; seed++ {
			cfg := workload.DefaultConfig(150, 3, seed)
			cfg.Load = 1.2
			ins := workload.Random(cfg)
			res := mustRun(t, ins, Options{Epsilon: eps, TrackDual: true})
			m, err := sched.ComputeMetrics(ins, res.Outcome)
			if err != nil {
				t.Fatal(err)
			}
			bound := math.Pow((1+eps)/eps, 2) * res.Dual.Objective()
			if res.Dual.Objective() <= 0 {
				t.Fatalf("eps=%v seed=%d: non-positive dual objective %v", eps, seed, res.Dual.Objective())
			}
			if m.TotalFlow > bound*(1+1e-9) {
				t.Fatalf("eps=%v seed=%d: flow %v exceeds ((1+ε)/ε)²·dual = %v",
					eps, seed, m.TotalFlow, bound)
			}
		}
	}
}

// TestCTildeDominatesFinish checks C̃_j ≥ completion/rejection time for every
// job (the definitive finish only adds non-negative corrections).
func TestCTildeDominatesFinish(t *testing.T) {
	cfg := workload.DefaultConfig(300, 2, 9)
	cfg.Load = 1.4
	ins := workload.Random(cfg)
	res := mustRun(t, ins, Options{Epsilon: 0.3, TrackDual: true})
	for id, ct := range res.Dual.CTilde {
		fin, ok := res.Outcome.Completed[id]
		if !ok {
			fin = res.Outcome.Rejected[id]
		}
		if ct < fin-1e-9 {
			t.Fatalf("job %d: C̃=%v < finish=%v", id, ct, fin)
		}
	}
}

// TestQuickValidOnRandomInstances is the catch-all property test: any random
// instance yields a structurally valid outcome with the rejection budget
// respected and every job accounted for.
func TestQuickValidOnRandomInstances(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8, epsRaw uint8) bool {
		n := 20 + int(nRaw)%180
		m := 1 + int(mRaw)%5
		eps := 0.05 + float64(epsRaw%90)/100.0
		cfg := workload.DefaultConfig(n, m, seed)
		cfg.Load = 0.5 + float64(seed%2)
		ins := workload.Random(cfg)
		res, err := Run(ins, Options{Epsilon: eps})
		if err != nil {
			return false
		}
		if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
			return false
		}
		frac := float64(len(res.Outcome.Rejected)) / float64(n)
		return frac <= 2*eps+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleJob(t *testing.T) {
	ins := &sched.Instance{Machines: 3, Jobs: []sched.Job{
		{ID: 0, Release: 5, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{7, 3, 9}},
	}}
	res := mustRun(t, ins, Options{Epsilon: 0.5, TrackDual: true})
	if got := res.Outcome.Completed[0]; got != 8 {
		t.Fatalf("completion %v, want 8 (machine 1)", got)
	}
	if res.Outcome.Assigned[0] != 1 {
		t.Fatalf("assigned machine %d, want 1", res.Outcome.Assigned[0])
	}
	v := res.Dual.CheckFeasibility(ins, 8)
	if v.Excess > 1e-9 {
		t.Fatalf("dual infeasible on single job: %v", v)
	}
}

func TestSimultaneousArrivals(t *testing.T) {
	var jobs []sched.Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, sched.Job{ID: i, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 1}})
	}
	ins := &sched.Instance{Machines: 2, Jobs: jobs}
	res := mustRun(t, ins, Options{Epsilon: 0.5})
	m, err := sched.ComputeMetrics(ins, res.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rejected > 10 {
		t.Fatalf("impossible rejection count %d", m.Rejected)
	}
	// The load must split across both machines.
	c := map[int]int{}
	for _, mm := range res.Outcome.Assigned {
		c[mm]++
	}
	if c[0] == 0 || c[1] == 0 {
		t.Fatalf("dispatch did not balance: %v", c)
	}
}

func TestZeroJobInstance(t *testing.T) {
	res, err := Run(&sched.Instance{Machines: 1}, Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcome.Completed)+len(res.Outcome.Rejected) != 0 || res.Dispatches != 0 {
		t.Fatalf("empty instance produced work: %+v", res)
	}
}
