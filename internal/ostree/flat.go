package ostree

// Flat is a cache-resident order-statistic index satisfying the same
// contract as Tree (Insert/Delete/DeleteMin/DeleteMax/Min/Max, RankStats /
// RankStatsVals, the P- and value-pair aggregates) over the same
// Key order, and it is the index every scheduler uses. Where the treap
// chases pointers through log n randomly placed nodes, Flat is an implicit
// B-tree laid out for the hardware prefetcher — three levels, all flat
// slices, no pointers:
//
//   - The bottom level is an arena of fixed-capacity sorted leaves
//     (leafCap keys each) addressed by dense int32 ids and recycled through
//     a free list — the same discipline as the treap's node arena, so
//     steady-state insert/delete churn never allocates.
//   - The middle level is one flat slice of per-leaf summaries (leafMeta:
//     count, max key, cached sums), in key order.
//   - The top level groups runs of up to groupCap summaries under a
//     groupMeta with its own count/max/sums.
//
// A rank query IS a left-to-right scan: whole groups accumulate from their
// cached sums until the boundary group, whole leaves within it until the
// boundary leaf, then one sequential scan inside that leaf — O(n/1024)
// group touches + ≤ 32 summaries + ≤ 32 keys, every step a sequential load
// the prefetcher streams. The fan-outs are cache-line-sized: a leafMeta is
// 56 bytes (≈ one line each at stride, prefetched), a leaf's key array is
// 768 bytes = 12 lines scanned linearly, and a 32-way group summary scan
// replaces 5 random pointer hops of a treap descent.
//
// Determinism and resume: the cached sums of leaves, groups and the index
// itself are incremental float accumulations (add on insert, subtract on
// delete, canonical recompute only when a leaf or group splits), so their
// exact bits are history-dependent — Snapshot serializes all of them
// verbatim along with the exact leaf partition, which is what the engine's
// bit-identical-resume guarantee requires (see Snapshot for the
// rationale). The elements are not copied: the owner writes each as what
// it names (a scheduler, its job's compact index) and hands back its key
// and value pair on restore. Counts and max keys are exact (integers and
// key copies) and are recomputed on restore. There is no PRNG: future
// structure is a pure function of the restored state and the operation
// stream.
type Flat struct {
	leaves []flatLeaf
	// order[pos] is the arena id of the pos-th leaf in key order; metas is
	// parallel to it. Separate slices keep the scanned summaries densely
	// packed away from the bulky leaf bodies.
	order  []int32
	metas  []leafMeta
	groups []groupMeta
	free   []int32
	n      int
	sumP   float64
	sumA   float64
	sumB   float64
}

// leafCap is the bottom fan-out: elements per leaf before a split.
// groupCap is the top fan-out: leaves per group before a split.
const (
	leafCap  = 32
	groupCap = 32
)

type flatLeaf struct {
	keys [leafCap]Key
	valA [leafCap]float64
	valB [leafCap]float64
}

// leafMeta summarizes one leaf for the middle-level scan.
type leafMeta struct {
	n    int32
	max  Key
	sumP float64
	sumA float64
	sumB float64
}

// groupMeta summarizes a contiguous run of nleaves leaf summaries.
type groupMeta struct {
	nleaves int32
	count   int32
	max     Key
	sumP    float64
	sumA    float64
	sumB    float64
}

// NewFlat returns an empty flat index. Unlike New (the treap) it needs no
// priority seed: the structure is fully determined by the operation
// sequence.
func NewFlat() *Flat { return &Flat{} }

// NewFlatHint returns an empty flat index with the leaf arena and summary
// slices presized for about hint elements, replacing the doubling-growth
// allocations of a cold index with one sized allocation per slice. The hint
// is advisory and never changes query results.
func NewFlatHint(hint int) *Flat {
	if hint <= 0 {
		return &Flat{}
	}
	// Leaves split at leafCap and refill to half, so a steady-state index
	// holds ~2n/leafCap leaves; +2 covers the tiny-index floor.
	nl := 2*hint/leafCap + 2
	ng := nl/groupCap + 2
	return &Flat{
		leaves: make([]flatLeaf, 0, nl),
		order:  make([]int32, 0, nl),
		metas:  make([]leafMeta, 0, nl),
		groups: make([]groupMeta, 0, ng),
	}
}

// Len reports the number of stored elements.
func (f *Flat) Len() int { return f.n }

// SumP reports the sum of P over all stored elements.
func (f *Flat) SumP() float64 {
	if f.n == 0 {
		return 0
	}
	return f.sumP
}

// SumVals reports the sums of the auxiliary value pair over all elements.
func (f *Flat) SumVals() (a, b float64) {
	if f.n == 0 {
		return 0, 0
	}
	return f.sumA, f.sumB
}

func (f *Flat) allocLeaf() int32 {
	if ln := len(f.free); ln > 0 {
		li := f.free[ln-1]
		f.free = f.free[:ln-1]
		return li
	}
	f.leaves = append(f.leaves, flatLeaf{})
	return int32(len(f.leaves) - 1)
}

// recomputeMeta rebuilds the pos-th leaf's summary canonically (left-to-
// right over its content). Only split and restore call it; ordinary
// mutations bump the sums incrementally.
func (f *Flat) recomputeMeta(pos int) {
	m := &f.metas[pos]
	lf := &f.leaves[f.order[pos]]
	n := int(m.n)
	var sp, sa, sb float64
	for i := 0; i < n; i++ {
		sp += lf.keys[i].P
		sa += lf.valA[i]
		sb += lf.valB[i]
	}
	m.max = lf.keys[n-1]
	m.sumP, m.sumA, m.sumB = sp, sa, sb
}

// recomputeGroup rebuilds group g's summary canonically from its covered
// leaf summaries. gstart is the metas index of the group's first leaf.
func (f *Flat) recomputeGroup(g, gstart int) {
	grp := &f.groups[g]
	end := gstart + int(grp.nleaves)
	var cnt int32
	var sp, sa, sb float64
	for pos := gstart; pos < end; pos++ {
		m := &f.metas[pos]
		cnt += m.n
		sp += m.sumP
		sa += m.sumA
		sb += m.sumB
	}
	grp.count = cnt
	grp.max = f.metas[end-1].max
	grp.sumP, grp.sumA, grp.sumB = sp, sa, sb
}

// findGroup returns the index and first-leaf position of the only group
// that can contain (or receive) k: the first whose max is ≥ k, or the last
// group when k is beyond every max. Requires a non-empty index.
func (f *Flat) findGroup(k Key) (g, gstart int) {
	last := len(f.groups) - 1
	for g = 0; g < last; g++ {
		if !f.groups[g].max.Less(k) {
			return g, gstart
		}
		gstart += int(f.groups[g].nleaves)
	}
	return last, gstart
}

// findLeaf narrows findGroup to the target leaf's position in metas.
func (f *Flat) findLeaf(k Key) (g, gstart, pos int) {
	g, gstart = f.findGroup(k)
	end := gstart + int(f.groups[g].nleaves)
	for pos = gstart; pos < end-1; pos++ {
		if !f.metas[pos].max.Less(k) {
			break
		}
	}
	return g, gstart, pos
}

// groupOf returns the group covering the leaf at metas position pos, with
// the group's first-leaf position.
func (f *Flat) groupOf(pos int) (g, gstart int) {
	for g = range f.groups {
		n := int(f.groups[g].nleaves)
		if pos < gstart+n {
			return g, gstart
		}
		gstart += n
	}
	panic("ostree: flat index leaf position outside every group")
}

// splitLeaf divides the full leaf at pos in half, inserting the upper half
// as a new leaf at pos+1 and growing (possibly splitting) the covering
// group. Both halves' summaries are recomputed canonically; group sums are
// unchanged by the split itself (same elements) but are recomputed when the
// group splits.
func (f *Flat) splitLeaf(pos int) {
	li2 := f.allocLeaf()
	lf := &f.leaves[f.order[pos]]
	lf2 := &f.leaves[li2]
	const half = leafCap / 2
	copy(lf2.keys[:half], lf.keys[half:])
	copy(lf2.valA[:half], lf.valA[half:])
	copy(lf2.valB[:half], lf.valB[half:])
	f.order = append(f.order, 0)
	copy(f.order[pos+2:], f.order[pos+1:])
	f.order[pos+1] = li2
	f.metas = append(f.metas, leafMeta{})
	copy(f.metas[pos+2:], f.metas[pos+1:])
	f.metas[pos].n = half
	f.metas[pos+1] = leafMeta{n: half}
	f.recomputeMeta(pos)
	f.recomputeMeta(pos + 1)

	g, gstart := f.groupOf(pos)
	grp := &f.groups[g]
	grp.nleaves++
	if grp.nleaves > groupCap {
		f.splitGroup(g, gstart)
	}
}

// splitGroup divides group g in half by leaf count.
func (f *Flat) splitGroup(g, gstart int) {
	nl := int(f.groups[g].nleaves)
	half := nl / 2
	f.groups = append(f.groups, groupMeta{})
	copy(f.groups[g+2:], f.groups[g+1:])
	f.groups[g].nleaves = int32(half)
	f.groups[g+1] = groupMeta{nleaves: int32(nl - half)}
	f.recomputeGroup(g, gstart)
	f.recomputeGroup(g+1, gstart+half)
}

// Insert adds a key. Inserting a key already present corrupts
// order-statistic queries; callers must keep IDs unique.
func (f *Flat) Insert(k Key) { f.insert(k, 0, 0) }

// InsertVals adds a key carrying the auxiliary value pair (a, b).
func (f *Flat) InsertVals(k Key, a, b float64) { f.insert(k, a, b) }

func (f *Flat) insert(k Key, a, b float64) {
	f.n++
	f.sumP += k.P
	f.sumA += a
	f.sumB += b
	if len(f.groups) == 0 {
		li := f.allocLeaf()
		lf := &f.leaves[li]
		lf.keys[0], lf.valA[0], lf.valB[0] = k, a, b
		f.order = append(f.order, li)
		f.metas = append(f.metas, leafMeta{n: 1})
		f.recomputeMeta(0)
		f.groups = append(f.groups, groupMeta{nleaves: 1})
		f.recomputeGroup(0, 0)
		return
	}
	_, _, pos := f.findLeaf(k)
	if f.metas[pos].n == leafCap {
		f.splitLeaf(pos)
		if f.metas[pos].max.Less(k) {
			pos++
		}
	}
	m := &f.metas[pos]
	lf := &f.leaves[f.order[pos]]
	n := int(m.n)
	i := 0
	for i < n && lf.keys[i].Less(k) {
		i++
	}
	copy(lf.keys[i+1:n+1], lf.keys[i:n])
	copy(lf.valA[i+1:n+1], lf.valA[i:n])
	copy(lf.valB[i+1:n+1], lf.valB[i:n])
	lf.keys[i], lf.valA[i], lf.valB[i] = k, a, b
	m.n++
	m.sumP += k.P
	m.sumA += a
	m.sumB += b
	if i == n {
		m.max = k
	}
	g, gstart := f.groupOf(pos)
	grp := &f.groups[g]
	grp.count++
	grp.sumP += k.P
	grp.sumA += a
	grp.sumB += b
	grp.max = f.metas[gstart+int(grp.nleaves)-1].max
}

// removeAt deletes element i of the leaf at position pos, retiring the
// leaf (and its group) when it empties.
func (f *Flat) removeAt(pos, i int) {
	m := &f.metas[pos]
	lf := &f.leaves[f.order[pos]]
	n := int(m.n)
	k := lf.keys[i]
	a, b := lf.valA[i], lf.valB[i]
	f.n--
	f.sumP -= k.P
	f.sumA -= a
	f.sumB -= b
	g, gstart := f.groupOf(pos)
	grp := &f.groups[g]
	grp.count--
	grp.sumP -= k.P
	grp.sumA -= a
	grp.sumB -= b
	if n == 1 {
		f.free = append(f.free, f.order[pos])
		f.order = append(f.order[:pos], f.order[pos+1:]...)
		f.metas = append(f.metas[:pos], f.metas[pos+1:]...)
		grp.nleaves--
		if grp.nleaves == 0 {
			f.groups = append(f.groups[:g], f.groups[g+1:]...)
			return
		}
		grp.max = f.metas[gstart+int(grp.nleaves)-1].max
		return
	}
	copy(lf.keys[i:n-1], lf.keys[i+1:n])
	copy(lf.valA[i:n-1], lf.valA[i+1:n])
	copy(lf.valB[i:n-1], lf.valB[i+1:n])
	m.n--
	m.sumP -= k.P
	m.sumA -= a
	m.sumB -= b
	m.max = lf.keys[int(m.n)-1]
	grp.max = f.metas[gstart+int(grp.nleaves)-1].max
}

// Delete removes the exact key if present and reports whether it was found.
func (f *Flat) Delete(k Key) bool {
	if f.n == 0 {
		return false
	}
	_, _, pos := f.findLeaf(k)
	m := &f.metas[pos]
	if m.max.Less(k) {
		return false
	}
	lf := &f.leaves[f.order[pos]]
	for i := 0; i < int(m.n); i++ {
		if lf.keys[i] == k {
			f.removeAt(pos, i)
			return true
		}
		if k.Less(lf.keys[i]) {
			return false
		}
	}
	return false
}

// Min returns the smallest key. ok is false on an empty index.
func (f *Flat) Min() (k Key, ok bool) {
	if f.n == 0 {
		return Key{}, false
	}
	return f.leaves[f.order[0]].keys[0], true
}

// Max returns the largest key. ok is false on an empty index.
func (f *Flat) Max() (k Key, ok bool) {
	if f.n == 0 {
		return Key{}, false
	}
	return f.groups[len(f.groups)-1].max, true
}

// DeleteMin removes and returns the smallest key.
func (f *Flat) DeleteMin() (Key, bool) {
	if f.n == 0 {
		return Key{}, false
	}
	k := f.leaves[f.order[0]].keys[0]
	f.removeAt(0, 0)
	return k, true
}

// DeleteMax removes and returns the largest key.
func (f *Flat) DeleteMax() (Key, bool) {
	if f.n == 0 {
		return Key{}, false
	}
	last := len(f.metas) - 1
	k := f.metas[last].max
	f.removeAt(last, int(f.metas[last].n)-1)
	return k, true
}

// RankStats returns, for a hypothetical insertion of k, the number and
// P-sum of stored elements strictly before k, and the number strictly after
// k. k itself need not be stored.
func (f *Flat) RankStats(k Key) (before int, sumPBefore float64, after int) {
	present := false
	pos := 0
scan:
	for g := range f.groups {
		grp := &f.groups[g]
		if grp.max.Less(k) {
			before += int(grp.count)
			sumPBefore += grp.sumP
			pos += int(grp.nleaves)
			continue
		}
		end := pos + int(grp.nleaves)
		for ; pos < end; pos++ {
			m := &f.metas[pos]
			if m.max.Less(k) {
				before += int(m.n)
				sumPBefore += m.sumP
				continue
			}
			lf := &f.leaves[f.order[pos]]
			for i := 0; i < int(m.n); i++ {
				if lf.keys[i].Less(k) {
					before++
					sumPBefore += lf.keys[i].P
					continue
				}
				if lf.keys[i] == k {
					present = true
				}
				break
			}
			break scan
		}
		break
	}
	after = f.n - before
	if present {
		after--
	}
	return before, sumPBefore, after
}

// RankStatsVals is RankStats extended with the auxiliary value-pair sums
// over the elements strictly before k.
func (f *Flat) RankStatsVals(k Key) (before int, sumPBefore, sumABefore, sumBBefore float64, after int) {
	present := false
	pos := 0
scan:
	for g := range f.groups {
		grp := &f.groups[g]
		if grp.max.Less(k) {
			before += int(grp.count)
			sumPBefore += grp.sumP
			sumABefore += grp.sumA
			sumBBefore += grp.sumB
			pos += int(grp.nleaves)
			continue
		}
		end := pos + int(grp.nleaves)
		for ; pos < end; pos++ {
			m := &f.metas[pos]
			if m.max.Less(k) {
				before += int(m.n)
				sumPBefore += m.sumP
				sumABefore += m.sumA
				sumBBefore += m.sumB
				continue
			}
			lf := &f.leaves[f.order[pos]]
			for i := 0; i < int(m.n); i++ {
				if lf.keys[i].Less(k) {
					before++
					sumPBefore += lf.keys[i].P
					sumABefore += lf.valA[i]
					sumBBefore += lf.valB[i]
					continue
				}
				if lf.keys[i] == k {
					present = true
				}
				break
			}
			break scan
		}
		break
	}
	after = f.n - before
	if present {
		after--
	}
	return before, sumPBefore, sumABefore, sumBBefore, after
}
