package sched

import (
	"math"
	"reflect"
	"testing"
)

// scratchPairInstance builds a tiny valid instance/outcome pair whose job
// ids are idBase and idBase+stride, so consecutive scratch calls see
// different id spaces and a large stride forces the sparse map fallback.
func scratchPairInstance(idBase, stride, machines int) (*Instance, *Outcome) {
	return scratchInstance(2, idBase, stride, machines)
}

// scratchInstance is scratchPairInstance with n jobs.
func scratchInstance(n, idBase, stride, machines int) (*Instance, *Outcome) {
	ins := &Instance{Machines: machines}
	o := NewOutcome()
	t := 0.0
	for k := 0; k < n; k++ {
		proc := make([]float64, machines)
		for i := range proc {
			proc[i] = 2
		}
		id := idBase + k*stride
		ins.Jobs = append(ins.Jobs, Job{ID: id, Release: t, Weight: 1, Deadline: NoDeadline, Proc: proc})
		m := k % machines
		o.Intervals = append(o.Intervals, Interval{Job: id, Machine: m, Start: t, End: t + 2, Speed: 1})
		o.Completed[id] = t + 2
		o.Assigned[id] = m
		t += 2
	}
	return ins, o
}

// TestScratchReuseAcrossInstances drives one scratch across instances of
// different sizes, id bases and machine counts: the recycled arenas must
// never leak state between calls (stale index entries, unzeroed histograms,
// leftover group offsets).
func TestScratchReuseAcrossInstances(t *testing.T) {
	var s scratch
	for _, shape := range []struct{ base, stride, machines int }{
		{0, 1, 2}, {1000, 1, 4}, {5, 1, 1},
		{7, 1 << 40, 3}, // id span ≫ 4n+1024: forces the map fallback
		{0, 1, 2},       // back to the dense path after the map fallback
	} {
		ins, o := scratchPairInstance(shape.base, shape.stride, shape.machines)
		if err := s.ValidateOutcome(ins, o, ValidateMode{RequireUnitSpeed: true}); err != nil {
			t.Fatalf("base %d machines %d: %v", shape.base, shape.machines, err)
		}
		m, err := s.ComputeMetrics(ins, o)
		if err != nil {
			t.Fatalf("base %d: %v", shape.base, err)
		}
		if m.Completed != 2 || m.TotalFlow != 2+2 {
			t.Fatalf("base %d: metrics %+v", shape.base, m)
		}
	}
	// A fresh pooled wrapper call must agree with the held scratch.
	ins, o := scratchPairInstance(7, 1, 2)
	held := scratch{}
	m1, err := held.ComputeMetrics(ins, o)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ComputeMetrics(ins, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("held scratch %+v diverges from pooled wrapper %+v", m1, m2)
	}
}

// TestScratchEnergyMatchesPooled pins the scratch energy sweep, which
// ComputeMetrics runs on a pooled scratch, against the known closed forms the
// package tests already use, after arena reuse.
func TestScratchEnergyMatchesPooled(t *testing.T) {
	in := &Instance{Machines: 2, Alpha: 2}
	ivs := []Interval{
		{Job: 0, Machine: 0, Start: 0, End: 2, Speed: 1},
		{Job: 1, Machine: 0, Start: 1, End: 3, Speed: 1},
		{Job: 2, Machine: 1, Start: 0, End: 1, Speed: 2},
	}
	var s scratch
	want := 1 + 4 + 1 + 4.0 // machine 0: 1² + 2² + 1², machine 1: 2²
	for trial := 0; trial < 3; trial++ {
		if got := s.EnergyOf(in, ivs); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: EnergyOf = %v, want %v", trial, got, want)
		}
	}
}

func TestMergeMetrics(t *testing.T) {
	a := Metrics{TotalFlow: 10, WeightedFlow: 20, Energy: 5, MaxFlow: 4,
		P99Flow: 3.5, Completed: 3, Rejected: 1, RejectedWeight: 2, Makespan: 9}
	b := Metrics{TotalFlow: 6, WeightedFlow: 6, Energy: 1, MaxFlow: 6,
		P99Flow: 2, Completed: 2, Rejected: 0, Makespan: 12}
	m := MergeMetrics(a, b)
	if m.TotalFlow != 16 || m.WeightedFlow != 26 || m.Energy != 6 {
		t.Fatalf("additive fields wrong: %+v", m)
	}
	if m.Completed != 5 || m.Rejected != 1 || m.RejectedWeight != 2 {
		t.Fatalf("counts wrong: %+v", m)
	}
	if m.MaxFlow != 6 || m.Makespan != 12 || m.P99Flow != 3.5 {
		t.Fatalf("max fields wrong: %+v", m)
	}
	if want := 16.0 / 6.0; math.Abs(m.MeanFlow-want) > 1e-12 {
		t.Fatalf("mean flow %v, want %v", m.MeanFlow, want)
	}
	if z := MergeMetrics(); !reflect.DeepEqual(z, Metrics{}) {
		t.Fatalf("empty merge: %+v", z)
	}
}
