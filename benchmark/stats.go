package main

import (
	"math"
	"slices"
)

// percentile reads the p-th percentile (0 ≤ p ≤ 100) off sorted samples with
// the ceil-rank rule (the smallest sample with at least p% of the population
// at or below it). Zero for an empty population.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 99.9% of 1000 at rank 999 where floating point says 999.0000000000001.
	idx := int(math.Ceil(p*float64(len(sorted))/100-1e-9)) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive" method),
// the rule the acceptance driver applies to the ten-seed spread. With fewer
// than two values every cut point is the value itself.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value (mean of the two middle values for an even count).
func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}
