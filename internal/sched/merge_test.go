package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// syntheticPart builds a Metrics part from raw flows, the way a shard's
// ComputeMetrics would summarize them.
func syntheticPart(flows []float64) Metrics {
	var m Metrics
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
	return m
}

// TestMergeMetricsP99IsMaxOfParts pins the merge's one p99 rule: the merged
// P99Flow is the largest part's, an upper bound on the whole population's.
// The shard split is adversarial: the tail lives on a small shard, whose own
// p99 overshoots the population's, so the bound is strict here.
func TestMergeMetricsP99IsMaxOfParts(t *testing.T) {
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

	if merged.P99Flow != parts[1].P99Flow {
		t.Fatalf("merged p99 %v, want the tail shard's %v", merged.P99Flow, parts[1].P99Flow)
	}
	population := append(append([]float64(nil), fast...), slow...)
	slices.Sort(population)
	if exact := quantileP99(population); !(merged.P99Flow > exact) {
		t.Fatalf("merged p99 %v not above the population's %v — the test instance is not adversarial", merged.P99Flow, exact)
	}
	if merged.Completed != len(population) || merged.MaxFlow != population[len(population)-1] {
		t.Fatalf("merged counts/max wrong: %+v", merged)
	}
}

// TestMergeMetricsNests pins that merges compose: merging merged views gives
// the same p99 and totals as one flat merge.
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
	if flat.P99Flow != nested.P99Flow || flat.MaxFlow != nested.MaxFlow {
		t.Fatal("nested merge diverges from flat merge")
	}
	if math.Abs(flat.TotalFlow-nested.TotalFlow) > 1e-9*flat.TotalFlow {
		t.Fatal("nested merge total flow diverges")
	}
}
