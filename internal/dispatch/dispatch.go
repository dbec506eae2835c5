// Package dispatch provides the shared arrival-time machine-selection core
// of the λ-dispatch schedulers (internal/core/flowtime, wflow, speedscale)
// and per-machine SRPT: an argmin_i f(i) over all machines, scanned serially
// unless the caller asks for a persistent worker pool of two or more
// workers. No caller asks by default: on a 2-core host the pool measured
// about twice the serial scan's time even at 128 machines (DESIGN.md,
// "Negative results").
//
// Determinism contract: ArgMin returns exactly the machine the canonical
// sequential loop
//
//	best, bestVal := 0, math.Inf(1)
//	for i := 0; i < n; i++ { if v := f(i); v < bestVal { best, bestVal = i, v } }
//
// would select — the lowest-index minimizer under strict < comparison. The
// parallel path shards [0,n) into contiguous ascending ranges, computes each
// shard's lowest-index strict minimum independently, and reduces the shard
// results in shard order with the same strict comparison, which commutes with
// the sequential scan because no floating-point value is ever recombined.
// Outputs are therefore bit-identical to the sequential path (including the
// all-+Inf and all-NaN corner cases, which select machine 0 either way).
//
// The eval function must be safe to call concurrently for distinct i. During
// dispatch the schedulers only read per-machine state, so this holds.
package dispatch

import (
	"math"
	"sync"
)

// Pool evaluates argmin over [0, n) on a fixed set of worker goroutines that
// persist across calls; per-call cost is one channel send per worker plus a
// WaitGroup rendezvous, with zero steady-state allocation. A Pool with one
// worker short-circuits to an inline loop. Close releases the goroutines.
type Pool struct {
	workers int
	n       int

	eval    func(i int) float64
	bestVal []float64
	bestIdx []int

	work chan int
	wg   sync.WaitGroup
	quit chan struct{}
}

// NewPool starts a pool of the given size for argmin calls over [0, n).
// workers is clamped to [1, n]; 0 and 1 both give the serial scan, and only
// ≥ 2 starts goroutines.
func NewPool(workers, n int) *Pool {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		n:       n,
		bestVal: make([]float64, workers),
		bestIdx: make([]int, workers),
	}
	if workers == 1 {
		return p
	}
	p.work = make(chan int)
	p.quit = make(chan struct{})
	for w := 0; w < workers; w++ {
		go p.run()
	}
	return p
}

// Close stops the worker goroutines. The pool must not be used afterwards.
// Close on a sequential (1-worker) pool is a no-op.
func (p *Pool) Close() {
	if p.work != nil {
		close(p.quit)
	}
}

func (p *Pool) run() {
	for {
		select {
		case w := <-p.work:
			lo := w * p.n / p.workers
			hi := (w + 1) * p.n / p.workers
			best, bv := -1, math.Inf(1)
			for i := lo; i < hi; i++ {
				if v := p.eval(i); v < bv {
					best, bv = i, v
				}
			}
			p.bestIdx[w], p.bestVal[w] = best, bv
			p.wg.Done()
		case <-p.quit:
			return
		}
	}
}

// ArgMin returns the lowest-index minimizer of eval over [0, n) and its
// value, per the package determinism contract.
func (p *Pool) ArgMin(eval func(i int) float64) (best int, bestVal float64) {
	best, bestVal = 0, math.Inf(1)
	if p.workers == 1 {
		for i := 0; i < p.n; i++ {
			if v := eval(i); v < bestVal {
				best, bestVal = i, v
			}
		}
		return best, bestVal
	}
	p.eval = eval
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.work <- w
	}
	p.wg.Wait()
	for w := 0; w < p.workers; w++ {
		if p.bestIdx[w] >= 0 && p.bestVal[w] < bestVal {
			best, bestVal = p.bestIdx[w], p.bestVal[w]
		}
	}
	return best, bestVal
}
