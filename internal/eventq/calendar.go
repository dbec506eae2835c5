package eventq

import (
	"math"
	"slices"
)

// Calendar is a bucketed ladder ("calendar") queue satisfying the exact
// deterministic pop-order contract of Queue: events pop in (Time, Kind,
// insertion-seq) order, with the packed ord word breaking every tie, so the
// observable sequence is provably independent of bucket layout. Where the
// heap pays O(log n) sifts per operation, the calendar pays O(1) amortized
// per push and a near-O(1) pop on the release-ordered streams the engine
// produces (event times never precede the time being handled).
//
// Layout: a window of `len(buckets)` rungs partitions [start, start+nb·w);
// bucket i holds events with floor((Time−start)/w) == i, unsorted. Because
// floor((t−start)/w) is monotone in t, every event in a later bucket is
// strictly later than every event in an earlier one — float rounding can
// only shift the boundary, never reorder it — so the global minimum always
// sits in the first non-empty bucket (or in one of the fallback rungs below)
// and a full (Time, ord) min-scan of that one bucket is exact.
//
// Two fallback rungs make arbitrary push orders correct, not just the
// engine's monotone one: `low` holds events below the window (and,
// defensively, non-finite times) and is min-compared on every pop; `over`
// holds events at/beyond the window end, which are provably strictly later
// than every bucketed event and are only consulted when the window drains.
// When that happens the window reseeds over the whole span of `over` —
// width = span/nb, nb sized from the observed event count, i.e. the bucket
// width tracks the observed cadence — so each event is staged in `over` at
// most once before being bucketed: O(1) amortized moves per event.
//
// Bucket storage is arena-style: bucket slices are truncated, never freed,
// and slices retired by a narrower reseed park on a free list (`spare`) for
// the next widening, so steady-state operation does not allocate.
//
// The zero value is ready to use.
type Calendar struct {
	seq uint64
	n   int

	// Window geometry. width == 0 means no window yet: every finite event
	// stages in over and the first pop seeds the window from it.
	start float64
	width float64
	invw  float64

	buckets [][]Event
	cur     int // first bucket that may be non-empty

	low   []Event   // below the window, or non-finite; min-compared each pop
	over  []Event   // at/beyond the window end; strictly later than buckets
	spare [][]Event // retired bucket slices (capacity reuse across reseeds)

	scratch []Event // snapshot staging (sorted emission)

	// Peek/Pop memo: the drain loop peeks then pops, so the min-scan result
	// is cached and invalidated by any mutation.
	mloc int8
	midx int
}

// Min-location memo states.
const (
	locNone int8 = iota
	locLow
	locBucket
)

// Calendar sizing: nb grows as the next power of two covering the staged
// event count, clamped so a bucket header array never dominates memory and a
// tiny queue never pays a wide scan.
const (
	calMinBuckets = 8
	calMaxBuckets = 8192
)

// NewCalendar returns an empty calendar queue. The zero value works too;
// the constructor exists for symmetry with the engine's factory seam.
func NewCalendar() *Calendar { return &Calendar{} }

// Push inserts an event, assigning the next insertion sequence.
func (c *Calendar) Push(e Event) {
	e.ord = uint64(e.Kind)<<ordShift | c.seq
	c.seq++
	c.place(e)
}

// Grow reserves capacity for n additional events in the staging rung. Unlike
// the heap the calendar cannot presize individual buckets (their fill is
// workload-dependent), but the overflow rung is where cold pushes land, so
// growing it removes the growth allocations of the first window.
func (c *Calendar) Grow(n int) {
	if free := cap(c.over) - len(c.over); free < n {
		no := make([]Event, len(c.over), len(c.over)+n)
		copy(no, c.over)
		c.over = no
	}
}

// Len reports the number of pending events.
func (c *Calendar) Len() int { return c.n }

// place routes one ord-carrying event to its rung. It never touches seq, so
// Restore reuses it for events whose ord must be preserved.
func (c *Calendar) place(e Event) {
	c.n++
	c.mloc = locNone
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		// Defensive: the engine never produces these, but the low rung is
		// min-compared on every pop, so even ±Inf pops in correct order.
		c.low = append(c.low, e)
		return
	}
	if c.width == 0 {
		c.over = append(c.over, e)
		return
	}
	x := (e.Time - c.start) * c.invw
	switch {
	case x < 0:
		c.low = append(c.low, e)
	case x >= float64(len(c.buckets)):
		c.over = append(c.over, e)
	default:
		idx := int(x)
		c.buckets[idx] = append(c.buckets[idx], e)
		if idx < c.cur {
			c.cur = idx
		}
	}
}

// reseed rebuilds the window over the full span of the overflow rung.
// Precondition: every bucket is empty and over is non-empty.
func (c *Calendar) reseed() {
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for k := range c.over {
		t := c.over[k].Time
		if t < tmin {
			tmin = t
		}
		if t > tmax {
			tmax = t
		}
	}
	nb := calMinBuckets
	for nb < len(c.over) && nb < calMaxBuckets {
		nb <<= 1
	}
	// width = span/(nb−1) so tmax itself lands inside the window; the span
	// of the staged events is the observed cadence times their count, hence
	// the bucket width tracks the mean inter-event gap. Degenerate spans
	// (all one instant, or a span that overflows float64) fall back to a
	// unit width: correctness never depends on the spread, only the cursor
	// does, and bucket 0 always receives the tmin events so every reseed
	// makes progress.
	w := (tmax - tmin) / float64(nb-1)
	if !(w > 0) || math.IsInf(w, 0) {
		w = 1
	}
	c.start = tmin
	c.width = w
	c.invw = 1 / w
	c.cur = 0

	// Resize the rung array, parking retired slices on the free list.
	if len(c.buckets) > nb {
		for _, b := range c.buckets[nb:] {
			c.spare = append(c.spare, b[:0])
		}
		c.buckets = c.buckets[:nb]
	}
	for len(c.buckets) < nb {
		var b []Event
		if k := len(c.spare); k > 0 {
			b, c.spare = c.spare[k-1], c.spare[:k-1]
		}
		c.buckets = append(c.buckets, b)
	}
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}

	// Distribute. Events beyond the new window (possible only through float
	// overflow of the span) compact back into over in place: writes trail
	// reads, so the shared backing array is safe.
	old := c.over
	c.over = c.over[:0]
	for k := range old {
		e := old[k]
		x := (e.Time - c.start) * c.invw
		if x >= float64(nb) || math.IsInf(x, 0) {
			c.over = append(c.over, e)
			continue
		}
		if x < 0 {
			x = 0 // t == tmin with rounding below; never truly below window
		}
		idx := int(x)
		c.buckets[idx] = append(c.buckets[idx], e)
	}
}

// findMin locates the earliest event by the full (Time, ord) comparator:
// the min of the low rung against the min of the first non-empty bucket
// (reseeding from over when the window is exhausted). The location is
// memoized for the peek-then-pop drain pattern.
func (c *Calendar) findMin() (int8, int) {
	if c.mloc != locNone {
		return c.mloc, c.midx
	}
	for {
		if c.width != 0 {
			for c.cur < len(c.buckets) && len(c.buckets[c.cur]) == 0 {
				c.cur++
			}
			if c.cur < len(c.buckets) {
				break
			}
		}
		if len(c.over) == 0 {
			break
		}
		c.reseed()
	}
	bi := -1
	if c.width != 0 && c.cur < len(c.buckets) {
		b := c.buckets[c.cur]
		bi = 0
		for k := 1; k < len(b); k++ {
			if less(&b[k], &b[bi]) {
				bi = k
			}
		}
	}
	li := -1
	for k := range c.low {
		if li < 0 || less(&c.low[k], &c.low[li]) {
			li = k
		}
	}
	switch {
	case bi < 0 && li < 0:
		panic("eventq: empty calendar queue")
	case bi < 0:
		c.mloc, c.midx = locLow, li
	case li >= 0 && less(&c.low[li], &c.buckets[c.cur][bi]):
		c.mloc, c.midx = locLow, li
	default:
		c.mloc, c.midx = locBucket, bi
	}
	return c.mloc, c.midx
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// guard with Len.
func (c *Calendar) Pop() Event {
	loc, idx := c.findMin()
	c.mloc = locNone
	c.n--
	if loc == locLow {
		e := c.low[idx]
		last := len(c.low) - 1
		c.low[idx] = c.low[last]
		c.low = c.low[:last]
		return e
	}
	b := c.buckets[c.cur]
	e := b[idx]
	last := len(b) - 1
	b[idx] = b[last]
	c.buckets[c.cur] = b[:last]
	return e
}

// Peek returns the earliest event without removing it.
func (c *Calendar) Peek() Event {
	loc, idx := c.findMin()
	if loc == locLow {
		return c.low[idx]
	}
	return c.buckets[c.cur][idx]
}

// Scan calls fn on every pending event in rung order (not pop order),
// stopping early when fn returns false. Read-only, like Queue.Scan.
func (c *Calendar) Scan(fn func(e *Event) bool) {
	for i := range c.low {
		if !fn(&c.low[i]) {
			return
		}
	}
	for b := range c.buckets {
		for i := range c.buckets[b] {
			if !fn(&c.buckets[b][i]) {
				return
			}
		}
	}
	for i := range c.over {
		if !fn(&c.over[i]) {
			return
		}
	}
}

// clear empties every rung and forgets the window, retaining all storage;
// Restore sets the sequence counter itself.
func (c *Calendar) clear() {
	c.n = 0
	c.mloc = locNone
	c.start, c.width, c.invw = 0, 0, 0
	c.cur = 0
	c.low = c.low[:0]
	c.over = c.over[:0]
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
}

// collectSorted gathers every pending event into the scratch slice in
// (Time, ord) order — the pop order, which is also a valid heap layout for
// any arity, so the emitted snapshot round-trips through Queue.Restore's
// parent check.
func (c *Calendar) collectSorted() []Event {
	s := c.scratch[:0]
	if cap(s) < c.n {
		s = make([]Event, 0, c.n)
	}
	c.Scan(func(e *Event) bool { s = append(s, *e); return true })
	slices.SortFunc(s, compare)
	c.scratch = s
	return s
}
