package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
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

// TestOutcomeRoundTrip: an outcome written by WriteOutcome decodes, with
// plain encoding/json, to the same decisions, every job-id key the
// canonical decimal form of its id, and the intervals in (start, job) order.
func TestOutcomeRoundTrip(t *testing.T) {
	ins := workload.Random(workload.DefaultConfig(30, 2, 9))
	res, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcome
	var buf bytes.Buffer
	if err := WriteOutcome(&buf, o); err != nil {
		t.Fatal(err)
	}
	var got outcomeJSON
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := outcomeJSON{
		Intervals: sortedIntervals(o.Intervals),
		Completed: make(map[string]float64),
		Rejected:  make(map[string]float64),
		Assigned:  make(map[string]int),
	}
	for id, v := range o.Completed {
		want.Completed[strconv.Itoa(id)] = v
	}
	for id, v := range o.Rejected {
		want.Rejected[strconv.Itoa(id)] = v
	}
	for id, v := range o.Assigned {
		want.Assigned[strconv.Itoa(id)] = v
	}
	if len(want.Completed)+len(want.Rejected) != len(ins.Jobs) || !reflect.DeepEqual(got, want) {
		t.Fatalf("WriteOutcome wrote\n%s\nwant the outcome's %d completions, %d rejections and %d intervals",
			buf.Bytes(), len(o.Completed), len(o.Rejected), len(o.Intervals))
	}
	for k := 1; k < len(got.Intervals); k++ {
		a, b := got.Intervals[k-1], got.Intervals[k]
		if a.Start > b.Start || a.Start == b.Start && a.Job > b.Job {
			t.Fatalf("interval %d %+v written after %+v", k, b, a)
		}
	}
}
