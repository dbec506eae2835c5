package ostree

import (
	"repro/internal/snapshot"
)

// flatGroupWire is the fixed per-group payload of Flat.Snapshot (leaf count
// word + three cached sums); it bounds the declared group count against the
// section size.
const flatGroupWire = 4 + 3*8

// Snapshot serializes the flat index with enough fidelity to make every
// future answer of a restored index bit-identical to the donor's, which is
// what the engine's bit-identical-resume guarantee needs: an ulp of drift
// in a cached sum can tip a later argmin tie. That means the exact leaf and
// group partition (rank queries accumulate whole-group and whole-leaf sums,
// so where the boundaries fall changes the float association order) and
// every cached sum verbatim — global, per-group and per-leaf alike are
// history-dependent incremental accumulations, not derivable from content.
//
// The elements themselves are not copied: put writes each one, in key
// order, as what its owner can rebuild it from — for a scheduler, the
// compact index of the job it holds, plus any key field that is state of
// its own (srpt's banked remainder). Keys and value pairs are a function of
// the job row, so Restore asks the owner for them again instead of proving
// a copy against it. Counts and max keys are derivable too (integer
// arithmetic and key copies are exact), so Restore recomputes them. There
// is no PRNG: future structure is a pure function of the restored state
// and the operation stream.
func (f *Flat) Snapshot(e *snapshot.Encoder, put func(k Key)) {
	e.U64(uint64(f.n))
	e.F64(f.sumP)
	e.F64(f.sumA)
	e.F64(f.sumB)
	e.U64(uint64(len(f.groups)))
	for g := range f.groups {
		grp := &f.groups[g]
		e.U32(uint32(grp.nleaves))
		e.F64(grp.sumP)
		e.F64(grp.sumA)
		e.F64(grp.sumB)
	}
	for pos := range f.metas {
		lf := &f.leaves[f.order[pos]]
		m := &f.metas[pos]
		n := int(m.n)
		e.U32(uint32(n))
		e.F64(m.sumP)
		e.F64(m.sumA)
		e.F64(m.sumB)
		for i := 0; i < n; i++ {
			put(lf.keys[i])
		}
	}
}

// Restore reconstructs a flat index serialized by Snapshot into this
// (empty) index, validating as it decodes: per-group leaf counts must lie
// in [1, groupCap], per-leaf element counts in [1, leafCap], keys must be
// strictly ascending across the whole walk — so no element repeats — and
// the element total must match the declared length exactly. elem reads one
// element as Snapshot's put wrote it and returns its key and value pair,
// built the way the owner's insert path builds them; it reports a bad
// element by failing d. Cached sums at every level are restored verbatim
// (donor state, not derived data); counts and max keys are recomputed.
func (f *Flat) Restore(d *snapshot.Decoder, elem func() (k Key, a, b float64)) error {
	if f.n != 0 || len(f.metas) != 0 {
		d.Failf("ostree: restore into a non-empty flat index")
		return d.Err()
	}
	total := int(d.U64())
	sumP, sumA, sumB := d.F64(), d.F64(), d.F64()
	ngroups := d.Count(flatGroupWire)
	if err := d.Err(); err != nil {
		return err
	}
	if total < 0 || ngroups > total || (total > 0) != (ngroups > 0) {
		d.Failf("ostree: %d groups declared for %d elements", ngroups, total)
		return d.Err()
	}
	nleaves := 0
	for g := 0; g < ngroups; g++ {
		nl := int(d.U32())
		gp, ga, gb := d.F64(), d.F64(), d.F64()
		if d.Err() != nil {
			return d.Err()
		}
		if nl < 1 || nl > groupCap {
			d.Failf("ostree: group %d holds %d leaves (max %d)", g, nl, groupCap)
			return d.Err()
		}
		nleaves += nl
		f.groups = append(f.groups, groupMeta{nleaves: int32(nl), sumP: gp, sumA: ga, sumB: gb})
	}
	if nleaves > total {
		f.groups = nil
		d.Failf("ostree: %d leaves declared for %d elements", nleaves, total)
		return d.Err()
	}
	var prev Key
	got := 0
	for pos := 0; pos < nleaves; pos++ {
		cnt := int(d.U32())
		mp, ma, mb := d.F64(), d.F64(), d.F64()
		if d.Err() != nil {
			return d.Err()
		}
		if cnt < 1 || cnt > leafCap {
			d.Failf("ostree: leaf %d holds %d elements (max %d)", pos, cnt, leafCap)
			return d.Err()
		}
		li := f.allocLeaf()
		lf := &f.leaves[li]
		for i := 0; i < cnt; i++ {
			k, a, b := elem()
			if d.Err() != nil {
				return d.Err()
			}
			if got > 0 && !prev.Less(k) {
				d.Failf("ostree: flat index element %d repeats or precedes element %d in key order", got, got-1)
				return d.Err()
			}
			prev = k
			got++
			lf.keys[i], lf.valA[i], lf.valB[i] = k, a, b
		}
		f.order = append(f.order, li)
		f.metas = append(f.metas, leafMeta{
			n: int32(cnt), max: lf.keys[cnt-1], sumP: mp, sumA: ma, sumB: mb,
		})
	}
	if got != total {
		d.Failf("ostree: flat index holds %d of the declared %d elements", got, total)
		return d.Err()
	}
	// Recompute the exact (integer/key-copy) group fields from the
	// restored leaf summaries; the float sums stay verbatim.
	gstart := 0
	for g := range f.groups {
		grp := &f.groups[g]
		end := gstart + int(grp.nleaves)
		var cnt int32
		for pos := gstart; pos < end; pos++ {
			cnt += f.metas[pos].n
		}
		grp.count = cnt
		grp.max = f.metas[end-1].max
		gstart = end
	}
	f.n = total
	f.sumP, f.sumA, f.sumB = sumP, sumA, sumB
	return nil
}
