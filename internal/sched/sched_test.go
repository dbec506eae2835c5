package sched

import (
	"math"
	"testing"
)

func twoJobInstance() *Instance {
	return &Instance{
		Machines: 2,
		Jobs: []Job{
			{ID: 0, Release: 0, Weight: 1, Deadline: NoDeadline, Proc: []float64{2, 4}},
			{ID: 1, Release: 1, Weight: 2, Deadline: NoDeadline, Proc: []float64{3, 1}},
		},
	}
}

func TestInstanceValidateOK(t *testing.T) {
	if err := twoJobInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestInstanceValidateRejectsBadInput(t *testing.T) {
	cases := map[string]func(*Instance){
		"no machines":          func(in *Instance) { in.Machines = 0 },
		"dup ids":              func(in *Instance) { in.Jobs[1].ID = 0 },
		"wrong proc len":       func(in *Instance) { in.Jobs[0].Proc = []float64{1} },
		"zero proc":            func(in *Instance) { in.Jobs[0].Proc[0] = 0 },
		"negative proc":        func(in *Instance) { in.Jobs[0].Proc[1] = -1 },
		"nan proc":             func(in *Instance) { in.Jobs[0].Proc[0] = math.NaN() },
		"zero weight":          func(in *Instance) { in.Jobs[0].Weight = 0 },
		"negative rel":         func(in *Instance) { in.Jobs[0].Release = -1 },
		"unsorted":             func(in *Instance) { in.Jobs[0].Release = 5 },
		"deadline before":      func(in *Instance) { in.Jobs[1].Deadline = 0.5 },
		"deadline at release":  func(in *Instance) { in.Jobs[1].Deadline = in.Jobs[1].Release },
		"release 1.5 Eps back": func(in *Instance) { in.Jobs[0].Release, in.Jobs[1].Release = 1, 1-1.5*Eps },
	}
	for name, mut := range cases {
		in := twoJobInstance()
		mut(in)
		if err := in.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	// A release may trail the last one by Eps, and no more.
	in := twoJobInstance()
	in.Jobs[0].Release, in.Jobs[1].Release = 1, 1-Eps
	if err := in.Validate(); err != nil {
		t.Errorf("release Eps back: %v", err)
	}
}

func TestTotalWeightAndMinProc(t *testing.T) {
	in := twoJobInstance()
	if got := in.TotalWeight(); got != 3 {
		t.Fatalf("TotalWeight = %v, want 3", got)
	}
	if got := in.Jobs[1].MinProc(); got != 1 {
		t.Fatalf("MinProc = %v, want 1", got)
	}
}

func TestSortJobs(t *testing.T) {
	in := &Instance{Machines: 1, Jobs: []Job{
		{ID: 1, Release: 5, Weight: 1, Deadline: NoDeadline, Proc: []float64{1}},
		{ID: 0, Release: 1, Weight: 1, Deadline: NoDeadline, Proc: []float64{1}},
	}}
	in.SortJobs()
	if in.Jobs[0].ID != 0 {
		t.Fatalf("SortJobs: first job id = %d, want 0", in.Jobs[0].ID)
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("sorted instance invalid: %v", err)
	}
}

func TestComputeMetricsBasic(t *testing.T) {
	in := twoJobInstance()
	o := NewOutcome()
	o.Completed[0] = 2
	o.Completed[1] = 2
	o.Assigned[0] = 0
	o.Assigned[1] = 1
	o.Intervals = []Interval{
		{Job: 0, Machine: 0, Start: 0, End: 2, Speed: 1},
		{Job: 1, Machine: 1, Start: 1, End: 2, Speed: 1},
	}
	m, err := ComputeMetrics(in, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalFlow != 3 { // (2-0) + (2-1)
		t.Fatalf("TotalFlow = %v, want 3", m.TotalFlow)
	}
	if m.WeightedFlow != 4 { // 1*2 + 2*1
		t.Fatalf("WeightedFlow = %v, want 4", m.WeightedFlow)
	}
	if m.Completed != 2 || m.Rejected != 0 {
		t.Fatalf("counts = %d/%d", m.Completed, m.Rejected)
	}
	if m.Makespan != 2 {
		t.Fatalf("Makespan = %v, want 2", m.Makespan)
	}
	if m.MaxFlow != 2 {
		t.Fatalf("MaxFlow = %v, want 2", m.MaxFlow)
	}
}

func TestComputeMetricsRejectedFlow(t *testing.T) {
	in := twoJobInstance()
	o := NewOutcome()
	o.Completed[0] = 2
	o.Rejected[1] = 4 // flow counted until rejection: 4-1 = 3
	o.Intervals = []Interval{{Job: 0, Machine: 0, Start: 0, End: 2, Speed: 1}}
	m, err := ComputeMetrics(in, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalFlow != 5 {
		t.Fatalf("TotalFlow = %v, want 5", m.TotalFlow)
	}
	if m.Rejected != 1 || m.RejectedWeight != 2 {
		t.Fatalf("rejected=%d weight=%v", m.Rejected, m.RejectedWeight)
	}
}

func TestComputeMetricsMissingJob(t *testing.T) {
	in := twoJobInstance()
	o := NewOutcome()
	o.Completed[0] = 2
	if _, err := ComputeMetrics(in, o); err == nil {
		t.Fatal("expected error for unaccounted job")
	}
}

func TestEnergyOfDisjointIntervals(t *testing.T) {
	in := &Instance{Machines: 1, Alpha: 2}
	ivs := []Interval{
		{Job: 0, Machine: 0, Start: 0, End: 2, Speed: 3},
		{Job: 1, Machine: 0, Start: 2, End: 3, Speed: 1},
	}
	got := new(scratch).EnergyOf(in, ivs)
	want := 2*9.0 + 1*1.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("EnergyOf = %v, want %v", got, want)
	}
}

func TestEnergyOfOverlapIsSuperadditive(t *testing.T) {
	in := &Instance{Machines: 1, Alpha: 2}
	ivs := []Interval{
		{Job: 0, Machine: 0, Start: 0, End: 2, Speed: 1},
		{Job: 1, Machine: 0, Start: 1, End: 3, Speed: 2},
	}
	// [0,1): 1²; [1,2): (1+2)²=9; [2,3): 2²=4 → 14
	got := new(scratch).EnergyOf(in, ivs)
	if math.Abs(got-14) > 1e-9 {
		t.Fatalf("EnergyOf = %v, want 14", got)
	}
	solo := new(scratch).EnergyOf(in, ivs[:1]) + new(scratch).EnergyOf(in, ivs[1:])
	if got < solo {
		t.Fatalf("overlap energy %v below sum of solo energies %v", got, solo)
	}
}

func TestEnergyOfSeparatesMachines(t *testing.T) {
	in := &Instance{Machines: 2, Alpha: 2}
	ivs := []Interval{
		{Job: 0, Machine: 0, Start: 0, End: 1, Speed: 2},
		{Job: 1, Machine: 1, Start: 0, End: 1, Speed: 2},
	}
	if got := new(scratch).EnergyOf(in, ivs); math.Abs(got-8) > 1e-9 {
		t.Fatalf("EnergyOf = %v, want 8 (4 per machine)", got)
	}
}

func validOutcome(in *Instance) *Outcome {
	o := NewOutcome()
	o.Completed[0] = 2
	o.Completed[1] = 2
	o.Assigned[0] = 0
	o.Assigned[1] = 1
	o.Intervals = []Interval{
		{Job: 0, Machine: 0, Start: 0, End: 2, Speed: 1},
		{Job: 1, Machine: 1, Start: 1, End: 2, Speed: 1},
	}
	return o
}

func TestValidateOutcomeOK(t *testing.T) {
	in := twoJobInstance()
	if err := ValidateOutcome(in, validOutcome(in), ValidateMode{RequireUnitSpeed: true}); err != nil {
		t.Fatalf("valid outcome rejected: %v", err)
	}
}

func TestValidateOutcomeCatchesViolations(t *testing.T) {
	in := twoJobInstance()
	cases := map[string]func(*Outcome){
		"both states": func(o *Outcome) { o.Rejected[0] = 1 },
		"unaccounted": func(o *Outcome) { delete(o.Completed, 1) },
		"early start": func(o *Outcome) {
			o.Intervals[1].Start = 0.5
			o.Completed[1] = 1.5
			o.Intervals[1].End = 1.5
		},
		"preempted": func(o *Outcome) {
			o.Intervals[0].End = 1
			o.Intervals = append(o.Intervals, Interval{Job: 0, Machine: 0, Start: 3, End: 4, Speed: 1})
		},
		"short work": func(o *Outcome) { o.Intervals[0].End = 1.5; o.Completed[0] = 1.5 },
		"overlap": func(o *Outcome) {
			o.Intervals[1].Machine = 0
			o.Assigned[1] = 0
			o.Intervals[1] = Interval{Job: 1, Machine: 0, Start: 1, End: 4, Speed: 1}
			o.Completed[1] = 4
		},
		"wrong machine": func(o *Outcome) { o.Assigned[0] = 1 },
		"no execution":  func(o *Outcome) { o.Intervals = o.Intervals[:1] },
		// A speed-augmented run at speed 1+NaN: every interval and
		// completion time is NaN.
		"nan run": func(o *Outcome) {
			for k := range o.Intervals {
				o.Intervals[k].End, o.Intervals[k].Speed = math.NaN(), math.NaN()
			}
			o.Completed[0], o.Completed[1] = math.NaN(), math.NaN()
		},
		"nan start":      func(o *Outcome) { o.Intervals[0].Start = math.NaN() },
		"nan end":        func(o *Outcome) { o.Intervals[0].End = math.NaN() },
		"nan speed":      func(o *Outcome) { o.Intervals[0].Speed = math.NaN() },
		"infinite speed": func(o *Outcome) { o.Intervals[0].Speed = math.Inf(1) },
		"nan completion": func(o *Outcome) { o.Completed[0] = math.NaN() },
		"nan rejection": func(o *Outcome) {
			delete(o.Completed, 1)
			o.Intervals = o.Intervals[:1]
			o.Rejected[1] = math.NaN()
		},
	}
	for name, mut := range cases {
		o := validOutcome(in)
		mut(o)
		if err := ValidateOutcome(in, o, ValidateMode{}); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestValidateOutcomeDeadlines(t *testing.T) {
	in := twoJobInstance()
	in.Jobs[0].Deadline = 1.5
	o := validOutcome(in)
	if err := ValidateOutcome(in, o, ValidateMode{RequireDeadlines: true}); err == nil {
		t.Fatal("expected deadline violation")
	}
	if err := ValidateOutcome(in, o, ValidateMode{}); err != nil {
		t.Fatalf("deadline should be ignored without RequireDeadlines: %v", err)
	}
}

func TestValidateOutcomeAllowParallel(t *testing.T) {
	in := &Instance{Machines: 1, Alpha: 2, Jobs: []Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: 4, Proc: []float64{2}},
		{ID: 1, Release: 0, Weight: 1, Deadline: 4, Proc: []float64{2}},
	}}
	o := NewOutcome()
	o.Completed[0] = 2
	o.Completed[1] = 3
	o.Intervals = []Interval{
		{Job: 0, Machine: 0, Start: 0, End: 2, Speed: 1},
		{Job: 1, Machine: 0, Start: 1, End: 3, Speed: 1},
	}
	if err := ValidateOutcome(in, o, ValidateMode{}); err == nil {
		t.Fatal("expected concurrency violation without AllowParallel")
	}
	if err := ValidateOutcome(in, o, ValidateMode{AllowParallel: true, RequireDeadlines: true}); err != nil {
		t.Fatalf("parallel outcome rejected: %v", err)
	}
}

func TestValidateOutcomeRejectedPartial(t *testing.T) {
	in := twoJobInstance()
	o := NewOutcome()
	o.Completed[1] = 3
	o.Rejected[0] = 1
	o.Assigned[1] = 0
	o.Intervals = []Interval{
		{Job: 0, Machine: 0, Start: 0, End: 1, Speed: 1}, // partial, interrupted
		{Job: 1, Machine: 0, Start: 1, End: 4, Speed: 1},
	}
	o.Completed[1] = 4
	if err := ValidateOutcome(in, o, ValidateMode{}); err != nil {
		t.Fatalf("partial execution of rejected job should validate: %v", err)
	}
	// but executing past the rejection instant must not
	o.Intervals[0].End = 1.5
	if err := ValidateOutcome(in, o, ValidateMode{}); err == nil {
		t.Fatal("expected violation for execution past rejection")
	}
}

func TestValidateOutcomeUnknownJobAndMachine(t *testing.T) {
	in := twoJobInstance()
	o := validOutcome(in)
	o.Intervals = append(o.Intervals, Interval{Job: 99, Machine: 0, Start: 5, End: 6, Speed: 1})
	if err := ValidateOutcome(in, o, ValidateMode{}); err == nil {
		t.Fatal("accepted an interval for an unknown job")
	}
	o = validOutcome(in)
	o.Intervals[0].Machine = 7
	o.Assigned[0] = 7
	if err := ValidateOutcome(in, o, ValidateMode{}); err == nil {
		t.Fatal("accepted an interval on an out-of-range machine")
	}
}

func TestValidateOutcomeMalformedIntervals(t *testing.T) {
	in := twoJobInstance()
	o := validOutcome(in)
	o.Intervals[0].Speed = 0
	if err := ValidateOutcome(in, o, ValidateMode{}); err == nil {
		t.Fatal("accepted zero-speed interval")
	}
	o = validOutcome(in)
	o.Intervals[0].Start = -1
	if err := ValidateOutcome(in, o, ValidateMode{}); err == nil {
		t.Fatal("accepted negative start")
	}
	o = validOutcome(in)
	o.Intervals[0].End = o.Intervals[0].Start - 1
	if err := ValidateOutcome(in, o, ValidateMode{}); err == nil {
		t.Fatal("accepted inverted interval")
	}
}

func TestValidateOutcomeMigration(t *testing.T) {
	// Even with preemption allowed, migrating between machines is illegal.
	in := twoJobInstance()
	o := NewOutcome()
	o.Completed[0] = 3
	o.Completed[1] = 2
	o.Intervals = []Interval{
		{Job: 0, Machine: 0, Start: 0, End: 1, Speed: 1},
		{Job: 0, Machine: 1, Start: 2, End: 3, Speed: 1},
		{Job: 1, Machine: 1, Start: 1, End: 2, Speed: 1},
	}
	if err := ValidateOutcome(in, o, ValidateMode{AllowPreemption: true}); err == nil {
		t.Fatal("accepted a migrated job")
	}
}

func TestValidateOutcomeRejectionBeforeRelease(t *testing.T) {
	in := twoJobInstance()
	o := NewOutcome()
	o.Completed[0] = 2
	o.Intervals = []Interval{{Job: 0, Machine: 0, Start: 0, End: 2, Speed: 1}}
	o.Rejected[1] = 0.5 // job 1 releases at 1
	if err := ValidateOutcome(in, o, ValidateMode{}); err == nil {
		t.Fatal("accepted rejection before release")
	}
}

// TestValidateOutcomeNamesDuplicateID pins that a repeated instance id is
// reported as such, by ValidateOutcome and by its per-lookup reference,
// rather than auditing the later job against another job's intervals.
func TestValidateOutcomeNamesDuplicateID(t *testing.T) {
	in := &Instance{Machines: 1, Jobs: []Job{
		{ID: 5, Weight: 1, Deadline: NoDeadline, Proc: []float64{2}},
		{ID: 5, Weight: 1, Deadline: NoDeadline, Proc: []float64{2}},
		{ID: 7, Weight: 1, Deadline: NoDeadline, Proc: []float64{2}},
	}}
	o := NewOutcome()
	o.Rejected[5] = 0
	o.Completed[7] = 2
	o.Assigned[7] = 0
	o.Intervals = []Interval{{Job: 7, Machine: 0, Start: 0, End: 2, Speed: 1}}
	const want = "sched: duplicate job id 5"
	if err := ValidateOutcome(in, o, ValidateMode{}); err == nil || err.Error() != want {
		t.Errorf("ValidateOutcome: %v, want %q", err, want)
	}
	if err := new(scratch).validateOutcomePerLookup(in, o, ValidateMode{}); err == nil || err.Error() != want {
		t.Errorf("per-lookup reference: %v, want %q", err, want)
	}
}

// TestFlowTimeErrors pins the per-lookup reference's flow rule
// (report_ref_test.go): an unknown job is an error, a rejected job's flow
// runs to its rejection.
func TestFlowTimeErrors(t *testing.T) {
	o := NewOutcome()
	j := &Job{ID: 7, Release: 1}
	if _, err := o.FlowTime(j); err == nil {
		t.Fatal("expected error for unknown job")
	}
	o.Rejected[7] = 3
	f, err := o.FlowTime(j)
	if err != nil || f != 2 {
		t.Fatalf("FlowTime = %v, %v", f, err)
	}
}

// TestValidateJobFloatEdges pins which processing times and releases
// ValidateJob accepts at the float edges, and the exact error text of each
// refusal: a processing time must be positive and finite, a release must be
// at least zero (+Inf passes, as it always has: the deadline rule then
// needs an infinite deadline).
func TestValidateJobFloatEdges(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		v             float64
		procErr, rErr string // "" means accepted
	}{
		{math.NaN(), "job 7 has invalid p[1]=NaN", "job 7 has invalid release NaN"},
		{math.Inf(1), "job 7 has invalid p[1]=+Inf", ""},
		{math.Inf(-1), "job 7 has invalid p[1]=-Inf", "job 7 has invalid release -Inf"},
		{0, "job 7 has invalid p[1]=0", ""},
		{math.Copysign(0, -1), "job 7 has invalid p[1]=-0", ""},
		{-1, "job 7 has invalid p[1]=-1", "job 7 has invalid release -1"},
		{tiny, "", ""},
		{math.MaxFloat64, "", ""},
	} {
		check := func(what string, j Job, want string) {
			err := ValidateJob(&j, 2, math.Inf(-1))
			switch {
			case want == "" && err != nil:
				t.Errorf("%s %v refused: %v", what, tc.v, err)
			case want != "" && (err == nil || err.Error() != want):
				t.Errorf("%s %v: error %v, want %q", what, tc.v, err, want)
			}
		}
		check("p", Job{ID: 7, Weight: 1, Deadline: NoDeadline, Proc: []float64{1, tc.v}}, tc.procErr)
		check("release", Job{ID: 7, Release: tc.v, Weight: 1, Deadline: NoDeadline, Proc: []float64{1, 1}}, tc.rErr)
	}
}
