package main

import (
	"bytes"
	"math"
	"testing"
)

// Expected values are what Python's statistics.quantiles(values, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}

func TestPercentile(t *testing.T) {
	s := make([]int64, 1000)
	for k := range s {
		s[k] = int64(k + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d", got)
	}
}

// TestCompareSets: two sets agree only with equal digests and every median
// within its bound of the other's, whichever of the two is the larger.
func TestCompareSets(t *testing.T) {
	defs := []metricDef{{Name: "jobs_per_s", Better: "higher", Bound: 0.25}, {Name: "resume_s", Better: "lower", Bound: 0.25}}
	set := func(digest string, jobs, resume float64) []*workloadResult {
		return []*workloadResult{{Name: "w", Digest: digest, Metrics: map[string]metricValue{
			"jobs_per_s": {Value: jobs}, "resume_s": {Value: resume}}}}
	}
	for _, c := range []struct {
		name   string
		second []*workloadResult
		agree  bool
	}{
		{"same", set("d", 100, 1), true},
		{"within bounds", set("d", 120, 0.85), true},
		{"better by more than the bound", set("d", 130, 1), false},
		{"worse by more than the bound", set("d", 100, 1.3), false},
		{"a zero median", set("d", 100, 0), false},
		{"another digest", set("e", 100, 1), false},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, defs, set("d", 100, 1), c.second); got != c.agree {
			t.Errorf("%s: agree = %v, want %v\n%s", c.name, got, c.agree, out.String())
		}
	}
}
