package dispatch

import (
	"math"
	"math/rand"
	"testing"
)

// seqArgMin is the canonical sequential scan the pool must reproduce.
func seqArgMin(n int, eval func(int) float64) (int, float64) {
	best, bv := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		if v := eval(i); v < bv {
			best, bv = i, v
		}
	}
	return best, bv
}

func TestArgMinMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 64, 257} {
		for _, workers := range []int{1, 2, 3, 4, 9} {
			rng := rand.New(rand.NewSource(int64(n*100 + workers)))
			vals := make([]float64, n)
			for trial := 0; trial < 50; trial++ {
				for i := range vals {
					vals[i] = math.Floor(rng.Float64()*10) / 10 // force ties
				}
				eval := func(i int) float64 { return vals[i] }
				p := NewPool(workers, n)
				gi, gv := p.ArgMin(eval)
				p.Close()
				wi, wv := seqArgMin(n, eval)
				if gi != wi || gv != wv {
					t.Fatalf("n=%d w=%d trial=%d: got (%d,%v) want (%d,%v) vals=%v",
						n, workers, trial, gi, gv, wi, wv, vals)
				}
			}
		}
	}
}

func TestArgMinCornerValues(t *testing.T) {
	cases := [][]float64{
		{math.Inf(1), math.Inf(1), math.Inf(1)},
		{math.NaN(), math.NaN(), math.NaN()},
		{math.NaN(), 2, math.NaN(), 1},
		{math.Inf(1), 3, math.Inf(-1), 3},
		{5},
	}
	for ci, vals := range cases {
		eval := func(i int) float64 { return vals[i] }
		wi, wv := seqArgMin(len(vals), eval)
		for _, workers := range []int{1, 2, 3} {
			p := NewPool(workers, len(vals))
			gi, gv := p.ArgMin(eval)
			p.Close()
			sameVal := gv == wv || (math.IsNaN(gv) && math.IsNaN(wv))
			if gi != wi || !sameVal {
				t.Fatalf("case %d w=%d: got (%d,%v) want (%d,%v)", ci, workers, gi, gv, wi, wv)
			}
		}
	}
}

func TestPoolReuseAcrossCalls(t *testing.T) {
	p := NewPool(3, 10)
	defer p.Close()
	vals := make([]float64, 10)
	eval := func(i int) float64 { return vals[i] }
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		for i := range vals {
			vals[i] = rng.Float64()
		}
		gi, _ := p.ArgMin(eval)
		wi, _ := seqArgMin(10, eval)
		if gi != wi {
			t.Fatalf("trial %d: got %d want %d (%v)", trial, gi, wi, vals)
		}
	}
}
