package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core/flowtime"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestInstanceRoundTrip(t *testing.T) {
	cfg := workload.DefaultConfig(40, 3, 5)
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 2.5

	var buf bytes.Buffer
	if err := WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machines != ins.Machines || got.Alpha != ins.Alpha || len(got.Jobs) != len(ins.Jobs) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for k := range ins.Jobs {
		a, b := ins.Jobs[k], got.Jobs[k]
		if a.ID != b.ID || a.Release != b.Release || a.Weight != b.Weight {
			t.Fatalf("job %d mismatch: %+v vs %+v", k, a, b)
		}
		for i := range a.Proc {
			if a.Proc[i] != b.Proc[i] {
				t.Fatalf("job %d proc mismatch", k)
			}
		}
	}
}

func TestInfiniteDeadlineRoundTrip(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
		{ID: 1, Release: 0, Weight: 1, Deadline: 5, Proc: []float64{1}},
	}}
	var buf bytes.Buffer
	if err := WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Inf") {
		t.Fatalf("infinity leaked into JSON:\n%s", buf.String())
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Jobs[0].Deadline, 1) {
		t.Fatalf("job 0 deadline = %v, want +Inf", got.Jobs[0].Deadline)
	}
	if got.Jobs[1].Deadline != 5 {
		t.Fatalf("job 1 deadline = %v, want 5", got.Jobs[1].Deadline)
	}
}

func TestReadInstanceValidates(t *testing.T) {
	bad := strings.NewReader(`{"machines": 0, "jobs": []}`)
	if _, err := ReadInstance(bad); err == nil {
		t.Fatal("accepted zero machines")
	}
	garbage := strings.NewReader(`{"machines": 1, "unknown_field": 3}`)
	if _, err := ReadInstance(garbage); err == nil {
		t.Fatal("accepted unknown fields")
	}
	notJSON := strings.NewReader(`]]]`)
	if _, err := ReadInstance(notJSON); err == nil {
		t.Fatal("accepted malformed JSON")
	}
}

func TestReadInstanceDefaultsWeight(t *testing.T) {
	r := strings.NewReader(`{"machines":1,"jobs":[{"id":0,"release":0,"proc":[2]}]}`)
	ins, err := ReadInstance(r)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Jobs[0].Weight != 1 {
		t.Fatalf("weight = %v, want default 1", ins.Jobs[0].Weight)
	}
}

func TestReadInstanceSorts(t *testing.T) {
	r := strings.NewReader(`{"machines":1,"jobs":[
		{"id":1,"release":5,"proc":[1]},
		{"id":0,"release":2,"proc":[1]}]}`)
	ins, err := ReadInstance(r)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Jobs[0].ID != 0 {
		t.Fatal("jobs not sorted by release")
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	ins := workload.Random(workload.DefaultConfig(30, 2, 9))
	res, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOutcome(&buf, res.Outcome); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOutcome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The round-tripped outcome must still pass the audit and produce the
	// same metrics.
	if err := sched.ValidateOutcome(ins, got, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
		t.Fatalf("round-tripped outcome invalid: %v", err)
	}
	m1, err := sched.ComputeMetrics(ins, res.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sched.ComputeMetrics(ins, got)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1.TotalFlow-m2.TotalFlow) > 1e-9 || m1.Rejected != m2.Rejected {
		t.Fatalf("metrics drifted: %+v vs %+v", m1, m2)
	}
}

func TestSaveLoadFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ins.json")
	ins := workload.Random(workload.DefaultConfig(10, 2, 1))
	var buf bytes.Buffer
	if err := WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 10 {
		t.Fatalf("loaded %d jobs", len(got.Jobs))
	}
	if _, err := LoadInstance(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("loaded a missing file")
	}
}

func TestReadOutcomeBadIDs(t *testing.T) {
	r := strings.NewReader(`{"intervals":[],"completed":{"notanum":1},"rejected":{},"assigned":{}}`)
	if _, err := ReadOutcome(r); err == nil {
		t.Fatal("accepted non-numeric job id")
	}
}
