package baseline

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core/srpt"
	"repro/internal/sched"
	"repro/internal/workload"
)

func checkValid(t *testing.T, ins *sched.Instance, out *sched.Outcome, unitSpeed bool) sched.Metrics {
	t.Helper()
	if err := sched.ValidateOutcome(ins, out, sched.ValidateMode{RequireUnitSpeed: unitSpeed}); err != nil {
		t.Fatalf("invalid outcome: %v", err)
	}
	m, err := sched.ComputeMetrics(ins, out)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGreedySPTCompletesEverything(t *testing.T) {
	ins := workload.Random(workload.DefaultConfig(200, 3, 1))
	out, err := GreedySPT(ins)
	if err != nil {
		t.Fatal(err)
	}
	m := checkValid(t, ins, out, true)
	if m.Rejected != 0 || m.Completed != 200 {
		t.Fatalf("greedy must serve everything: %d/%d", m.Completed, m.Rejected)
	}
}

func TestFCFSServesInArrivalOrderPerMachine(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{5}},
		{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{10}},
		{ID: 2, Release: 2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
	}}
	out, err := FCFS(ins)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, ins, out, true)
	if !(out.Completed[0] < out.Completed[1] && out.Completed[1] < out.Completed[2]) {
		t.Fatalf("FCFS order violated: %v", out.Completed)
	}
}

func TestSPTOvertakesUnderLeastLoaded(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{5}},
		{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{10}},
		{ID: 2, Release: 2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
	}}
	out, err := LeastLoaded(ins)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, ins, out, true)
	if out.Completed[2] >= out.Completed[1] {
		t.Fatalf("SPT order violated: job2 should overtake job1: %v", out.Completed)
	}
}

func TestSpeedAugmentedRunsFaster(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{10}},
	}}
	out, err := SpeedAugmented(ins, 1.0, 0.5) // speed 2
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, ins, out, false)
	if math.Abs(out.Completed[0]-5) > 1e-9 {
		t.Fatalf("completion %v, want 5 at speed 2", out.Completed[0])
	}
}

func TestSpeedAugmentedRejectsRunning(t *testing.T) {
	// epsR = 0.5 → threshold 2: the third arrival interrupts the runner.
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{100}},
		{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
		{ID: 2, Release: 2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
	}}
	out, err := SpeedAugmented(ins, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, ins, out, false)
	if r, ok := out.Rejected[0]; !ok || r != 2 {
		t.Fatalf("job 0 rejection = %v,%v; want rejected at t=2", r, ok)
	}
	if len(out.Completed) != 2 {
		t.Fatalf("small jobs must complete: %v", out.Completed)
	}
}

func TestImmediateRejectBudget(t *testing.T) {
	f := func(seed int64) bool {
		cfg := workload.DefaultConfig(150, 2, seed)
		cfg.Sizes = workload.SizePareto
		ins := workload.Random(cfg)
		out, err := ImmediateReject(ins, 0.2, 3)
		if err != nil {
			return false
		}
		if err := sched.ValidateOutcome(ins, out, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
			return false
		}
		return float64(len(out.Rejected)) <= 0.2*float64(len(ins.Jobs))+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestImmediateRejectNeverRejectsRunningOrQueued(t *testing.T) {
	ins := workload.Lemma1Instance(10, 0.25)
	out, err := ImmediateReject(ins, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, ins, out, true)
	// A rejected job must have no execution interval at all (decision at
	// arrival ⇒ it never entered a queue).
	for _, iv := range out.Intervals {
		if _, rej := out.Rejected[iv.Job]; rej {
			t.Fatalf("immediately rejected job %d has an execution interval", iv.Job)
		}
	}
}

func TestLemma1TrapCatchesImmediatePolicy(t *testing.T) {
	// The structural heart of Lemma 1: on the adversarial family, the
	// immediate policy's flow explodes versus the adversary's schedule.
	l := 20.0
	ins := workload.Lemma1Instance(l, 0.5)
	out, err := ImmediateReject(ins, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	mAlg := checkValid(t, ins, out, true)
	adv := workload.Lemma1Adversary(ins)
	mAdv := checkValid(t, ins, adv, true)
	if mAlg.TotalFlow < 4*mAdv.TotalFlow {
		t.Fatalf("trap failed: alg flow %v vs adversary %v", mAlg.TotalFlow, mAdv.TotalFlow)
	}
}

func TestFixedSpeedHDFRunsAtSoloSpeed(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Alpha: 2, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 4, Deadline: sched.NoDeadline, Proc: []float64{6}},
	}}
	out, err := FixedSpeedHDF(ins, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, ins, out, false)
	// s* = (4/1)^(1/2) = 2 → completes at 3.
	if math.Abs(out.Completed[0]-3) > 1e-9 {
		t.Fatalf("completion %v, want 3 at speed 2", out.Completed[0])
	}
	if math.Abs(out.Intervals[0].Speed-2) > 1e-9 {
		t.Fatalf("speed %v, want 2", out.Intervals[0].Speed)
	}
}

func TestFixedSpeedHDFServesDenseFirst(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Alpha: 2, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{10}},
		{ID: 1, Release: 0.5, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{4}},  // density 0.25
		{ID: 2, Release: 0.6, Weight: 10, Deadline: sched.NoDeadline, Proc: []float64{4}}, // density 2.5
	}}
	out, err := FixedSpeedHDF(ins, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, ins, out, false)
	if out.Completed[2] >= out.Completed[1] {
		t.Fatalf("HDF order violated: %v", out.Completed)
	}
	if _, err := FixedSpeedHDF(ins, 1); err == nil {
		t.Fatal("accepted alpha=1")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	ins := workload.Random(workload.DefaultConfig(10, 2, 1))
	// NaN passes an `x <= 0` check: a NaN speed makes every time NaN, a
	// NaN epsR would turn Rule 1 off, and a NaN immediate-reject eps would
	// switch the rejection budget off.
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run(ins, Config{Speed: bad}); err == nil {
			t.Errorf("speed %v accepted", bad)
		}
		if _, err := SpeedAugmented(ins, bad, 0.5); err == nil {
			t.Errorf("epsS %v accepted", bad)
		}
		if _, err := SpeedAugmented(ins, 0.5, bad); err == nil {
			t.Errorf("epsR %v accepted", bad)
		}
		if _, err := ImmediateReject(ins, bad, 3); err == nil {
			t.Errorf("immediate-reject eps %v accepted", bad)
		}
		if _, err := ImmediateReject(ins, 0.5, bad); err == nil {
			t.Errorf("immediate-reject outlier %v accepted", bad)
		}
	}
	bad := &sched.Instance{Machines: 0}
	if _, err := GreedySPT(bad); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

func TestBaselinesAccountEveryJob(t *testing.T) {
	ins := workload.Random(workload.DefaultConfig(300, 4, 77))
	for name, run := range map[string]func(*sched.Instance) (*sched.Outcome, error){
		"greedy":      GreedySPT,
		"fcfs":        FCFS,
		"leastloaded": LeastLoaded,
	} {
		out, err := run(ins)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out.Completed)+len(out.Rejected) != len(ins.Jobs) {
			t.Fatalf("%s: jobs unaccounted", name)
		}
	}
}

func TestHugeJobIDsSurviveEventPayload(t *testing.T) {
	// Job IDs are arbitrary unique ints; events internally carry compact
	// indices precisely so IDs beyond int32 cannot truncate. Regression
	// test for the int32 event payload.
	jobs := []sched.Job{
		{ID: 3_000_000_001, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{2, 3}},
		{ID: 5, Release: 0.5, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{4, 1}},
		{ID: 9_999_999_999, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 5}},
	}
	ins := &sched.Instance{Machines: 2, Jobs: jobs}
	out, err := Run(ins, Config{Speed: 1, Dispatch: DispatchBacklog, Order: OrderSPT})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Completed) != len(jobs) {
		t.Fatalf("completed %d of %d jobs: %v", len(out.Completed), len(jobs), out.Completed)
	}
	for _, j := range jobs {
		if _, ok := out.Completed[j.ID]; !ok {
			t.Fatalf("job %d missing from outcome", j.ID)
		}
	}
	res, err := srpt.Run(ins, srpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcome.Completed) != len(jobs) {
		t.Fatalf("SRPT completed %d of %d jobs", len(res.Outcome.Completed), len(jobs))
	}
}
