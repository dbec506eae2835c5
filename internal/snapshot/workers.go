package snapshot

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelMin is the smallest section, in payload bytes, that a tree parse
// verifies and a delta plan chunk-compares on a worker goroutine: below it,
// handing the work over costs more than it saves. A front checkpoint's
// per-shard SHRD frames clear it, and so do its larger leaves. In-package
// tests lower it so that fuzz-sized containers take the concurrent path.
var parallelMin = 1 << 20

// workers bounds the goroutines of one tree parse or one delta plan: the
// caller plus at most GOMAXPROCS-1 helpers, a budget shared by every nesting
// level of the walk, so a helper that meets large sections of its own starts
// more helpers only while the budget lasts.
type workers struct{ free atomic.Int32 }

func newWorkers() *workers {
	w := &workers{}
	w.free.Store(int32(runtime.GOMAXPROCS(0) - 1))
	return w
}

// each calls f(k) once for every k in [0, n), claiming ks in ascending order,
// on the calling goroutine and on up to helpers more goroutines, as many as
// the budget has free. It returns once every call has returned and every
// helper has given its slot back. Each f(k) must write only what k owns.
func (w *workers) each(n, helpers int, f func(k int)) {
	var next atomic.Int32
	run := func() {
		for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
			f(k)
		}
	}
	var wg sync.WaitGroup
	for ; helpers > 0 && w.take(); helpers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
			w.free.Add(1)
		}()
	}
	run()
	wg.Wait()
}

// take claims a helper slot, if one is free.
func (w *workers) take() bool {
	for {
		f := w.free.Load()
		if f <= 0 {
			return false
		}
		if w.free.CompareAndSwap(f, f-1) {
			return true
		}
	}
}
