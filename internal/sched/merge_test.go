package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// syntheticPart builds a Metrics part from raw flows, the way a shard's
// ComputeMetricsFlows would summarize them.
func syntheticPart(flows []float64) Metrics {
	var m Metrics
	// Non-nil even when empty: an empty shard still carries (an empty)
	// sample population, which keeps the merge exact.
	sorted := append(make([]float64, 0, len(flows)), flows...)
	slices.Sort(sorted)
	for _, f := range sorted {
		m.TotalFlow += f
		if f > m.MaxFlow {
			m.MaxFlow = f
		}
	}
	m.Completed = len(sorted)
	if len(sorted) > 0 {
		m.MeanFlow = m.TotalFlow / float64(len(sorted))
		m.P99Flow = quantileP99(sorted)
	}
	m.Flows = sorted
	return m
}

// TestMergeMetricsExactP99 pins the satellite guarantee: merging parts that
// carry their flow samples yields the whole-population p99 — identical to
// computing the quantile over the concatenated flows directly — while the
// sample-less merge only upper-bounds it. The shard split is adversarial for
// the old bound: the tail lives on a small shard, whose own p99 overshoots
// the population's.
func TestMergeMetricsExactP99(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Shard 0: 900 fast jobs. Shard 1: 100 slow jobs (the tail). Shard 2:
	// empty, the degenerate case.
	fast := make([]float64, 900)
	for i := range fast {
		fast[i] = rng.Float64()
	}
	slow := make([]float64, 100)
	for i := range slow {
		slow[i] = 10 + 10*rng.Float64()
	}
	parts := []Metrics{syntheticPart(fast), syntheticPart(slow), syntheticPart(nil)}

	merged := MergeMetrics(parts...)

	population := append(append([]float64(nil), fast...), slow...)
	slices.Sort(population)
	want := quantileP99(population)
	if merged.P99Flow != want {
		t.Fatalf("merged p99 %v, population p99 %v", merged.P99Flow, want)
	}
	if !slices.Equal(merged.Flows, population) {
		t.Fatalf("merged flows are not the sorted population")
	}
	// The old upper bound (max of shard p99s) is strictly looser here: the
	// tail shard's own p99 sits above the population's.
	loose := MergeMetrics(parts[0], Metrics{
		TotalFlow: parts[1].TotalFlow, Completed: parts[1].Completed,
		MaxFlow: parts[1].MaxFlow, P99Flow: parts[1].P99Flow, // no Flows
	})
	if !(loose.P99Flow > want) {
		t.Fatalf("upper-bound fallback %v not above exact %v — the test instance is not adversarial", loose.P99Flow, want)
	}
	if loose.Flows != nil {
		t.Fatal("fallback merge must not fabricate samples")
	}
}

// TestMergeMetricsNests pins that merges compose: merging merged views gives
// the same exact quantiles as one flat merge.
func TestMergeMetricsNests(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mk := func(n int, scale float64) Metrics {
		fl := make([]float64, n)
		for i := range fl {
			fl[i] = scale * rng.Float64()
		}
		return syntheticPart(fl)
	}
	a, b, c, d := mk(50, 1), mk(70, 5), mk(30, 20), mk(90, 2)
	flat := MergeMetrics(a, b, c, d)
	nested := MergeMetrics(MergeMetrics(a, b), MergeMetrics(c, d))
	if flat.P99Flow != nested.P99Flow || !slices.Equal(flat.Flows, nested.Flows) {
		t.Fatal("nested merge diverges from flat merge")
	}
	if math.Abs(flat.TotalFlow-nested.TotalFlow) > 1e-9*flat.TotalFlow {
		t.Fatal("nested merge total flow diverges")
	}
}

// TestComputeMetricsFlowsMatchesSummary checks the sample-carrying variant
// against the plain one on a real outcome, and that the samples do not alias
// the scratch arena.
func TestComputeMetricsFlowsMatchesSummary(t *testing.T) {
	ins := &Instance{
		Machines: 2,
		Jobs: []Job{
			{ID: 0, Release: 0, Weight: 1, Deadline: NoDeadline, Proc: []float64{2, 3}},
			{ID: 1, Release: 1, Weight: 1, Deadline: NoDeadline, Proc: []float64{4, 1}},
			{ID: 2, Release: 2, Weight: 1, Deadline: NoDeadline, Proc: []float64{1, 5}},
		},
	}
	o := &Outcome{
		Intervals: []Interval{
			{Job: 0, Machine: 0, Start: 0, End: 2, Speed: 1},
			{Job: 1, Machine: 1, Start: 1, End: 2, Speed: 1},
			{Job: 2, Machine: 0, Start: 2, End: 3, Speed: 1},
		},
		Completed: map[int]float64{0: 2, 1: 2, 2: 3},
		Rejected:  map[int]float64{},
		Assigned:  map[int]int{0: 0, 1: 1, 2: 0},
	}
	var s scratch
	plain, err := s.ComputeMetrics(ins, o)
	if err != nil {
		t.Fatal(err)
	}
	withFlows, err := s.computeMetricsFlows(ins, o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Flows != nil {
		t.Fatal("plain ComputeMetrics must not carry samples")
	}
	if withFlows.P99Flow != plain.P99Flow || withFlows.TotalFlow != plain.TotalFlow {
		t.Fatal("sample-carrying variant changes the summary")
	}
	want := []float64{1, 1, 2}
	if !slices.Equal(withFlows.Flows, want) {
		t.Fatalf("flows %v, want %v", withFlows.Flows, want)
	}
	// Reusing the scratch must not mutate the returned samples.
	o.Completed[2] = 9
	if _, err := s.ComputeMetrics(ins, o); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(withFlows.Flows, want) {
		t.Fatal("samples alias the scratch arena")
	}
}
