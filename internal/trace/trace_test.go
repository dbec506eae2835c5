package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core/flowtime"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestInstanceRoundTrip: an instance written by WriteInstance reads back
// identical, deadlines and α included.
func TestInstanceRoundTrip(t *testing.T) {
	ins := workload.RandomDeadline(workload.DeadlineConfig{
		N: 40, M: 2, Seed: 3, Horizon: 100, MinVol: 1, MaxVol: 5, Slack: 2, Alpha: 2,
	})
	var buf bytes.Buffer
	if err := WriteInstance(&buf, ins); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ins, got) {
		t.Fatal("round trip altered the instance")
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
	for name, in := range map[string]string{
		"zero machines":  "{\"machines\":0}\n",
		"unknown field":  "{\"machines\":1,\"unknown_field\":3}\n",
		"malformed JSON": "]]]",
		"duplicate id":   "{\"machines\":1}\n{\"id\":0,\"release\":0,\"proc\":[1]}\n{\"id\":0,\"release\":1,\"proc\":[1]}\n",
	} {
		if _, err := ReadInstance(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestReadInstanceDefaultsWeight(t *testing.T) {
	r := strings.NewReader("{\"machines\":1}\n{\"id\":0,\"release\":0,\"proc\":[2]}\n")
	ins, err := ReadInstance(r)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Jobs[0].Weight != 1 {
		t.Fatalf("weight = %v, want default 1", ins.Jobs[0].Weight)
	}
}

// TestReadInstanceRefusesUnsorted: jobs arrive in file order, so a release
// out of order is refused at its line rather than sorted into place.
func TestReadInstanceRefusesUnsorted(t *testing.T) {
	r := strings.NewReader(`{"machines":1}
{"id":1,"release":5,"proc":[1]}
{"id":0,"release":2,"proc":[1]}
`)
	if _, err := ReadInstance(r); err == nil || !strings.Contains(err.Error(), "ndjson line 3: job 0 released at 2") {
		t.Fatalf("err = %v, want the positioned release-order refusal", err)
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

func TestReadOutcomeBadIDs(t *testing.T) {
	r := strings.NewReader(`{"intervals":[],"completed":{"notanum":1},"rejected":{},"assigned":{}}`)
	if _, err := ReadOutcome(r); err == nil {
		t.Fatal("accepted non-numeric job id")
	}
}

// TestReadOutcomeJobIDs pins that an outcome's job-id keys parse only in the
// canonical decimal form WriteOutcome writes: every other spelling, which a
// lenient parse read as some id (Sscanf took "12abc" and " 12" as 12, "1e3"
// as 1, "0x1F" as 0), is refused, so no two keys can land on one id and
// silently overwrite each other.
func TestReadOutcomeJobIDs(t *testing.T) {
	outcome := func(keys ...string) string {
		var b strings.Builder
		b.WriteString(`{"intervals":[],"completed":{`)
		for k, key := range keys {
			if k > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%q:%d", key, k+1)
		}
		b.WriteString(`},"rejected":{},"assigned":{}}`)
		return b.String()
	}
	for _, tc := range []struct {
		keys []string
		want map[int]float64 // nil: refused
	}{
		{[]string{"12"}, map[int]float64{12: 1}},
		{[]string{"-7", "0"}, map[int]float64{-7: 1, 0: 2}},
		{[]string{"12abc"}, nil},
		{[]string{"1e3"}, nil},
		{[]string{"0x1F"}, nil},
		{[]string{" 12"}, nil},
		{[]string{"+12"}, nil},
		{[]string{"012"}, nil},
		{[]string{"-0"}, nil},
		{[]string{""}, nil},
		{[]string{"12", "12abc"}, nil}, // once both read as job 12
	} {
		o, err := ReadOutcome(strings.NewReader(outcome(tc.keys...)))
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("keys %q: read as %v, want a refusal", tc.keys, o.Completed)
		case tc.want != nil && err != nil:
			t.Errorf("keys %q: %v", tc.keys, err)
		case tc.want != nil && !reflect.DeepEqual(o.Completed, tc.want):
			t.Errorf("keys %q: read %v, want %v", tc.keys, o.Completed, tc.want)
		}
	}
}
