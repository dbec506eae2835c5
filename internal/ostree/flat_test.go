package ostree

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/snapshot"
)

// roundTripFlat freezes f through the real container format and restores it
// into a fresh index, checking that re-snapshotting the restored index
// reproduces the donor's bytes exactly (the bit-identical-resume contract).
func roundTripFlat(t *testing.T, f *Flat) *Flat {
	t.Helper()
	sw := snapshot.AppendWriter(nil)
	sw.Section("FLAT", f.Snapshot)
	if err := sw.Close(); err != nil {
		t.Fatalf("flat snapshot: %v", err)
	}
	sr, err := snapshot.NewReader(bytes.NewReader(sw.Bytes()))
	if err != nil {
		t.Fatalf("flat snapshot reader: %v", err)
	}
	d, err := sr.Section("FLAT")
	if err != nil {
		t.Fatalf("flat snapshot section: %v", err)
	}
	nf := NewFlat()
	if err := nf.Restore(d); err != nil {
		t.Fatalf("flat restore: %v", err)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("flat restore trailing: %v", err)
	}
	sw2 := snapshot.AppendWriter(nil)
	sw2.Section("FLAT", nf.Snapshot)
	if err := sw2.Close(); err != nil {
		t.Fatalf("flat re-snapshot: %v", err)
	}
	if !bytes.Equal(sw.Bytes(), sw2.Bytes()) {
		t.Fatalf("restored flat index re-snapshots to different bytes")
	}
	return nf
}

// applyOpsFlatVsTreap drives a treap and a flat index through the same
// operation stream and cross-checks every observable: delete results and
// order extremes exactly, rank counts exactly, float aggregates within the
// re-association tolerance (the two structures accumulate prefix sums in
// different orders). Op 5 freezes the flat index through the snapshot
// container mid-sequence and continues on the restored copy, so the fuzz
// explores resume points interleaved arbitrarily with mutations.
func applyOpsFlatVsTreap(t *testing.T, seed uint64, ops []byte) {
	t.Helper()
	tr := New(seed)
	fl := NewFlat()
	nextID := 0
	for pc := 0; pc+1 < len(ops); pc += 2 {
		op, arg := ops[pc], ops[pc+1]
		switch op % 6 {
		case 0: // insert with values
			p := float64(arg%16) + 0.5
			k := Key{P: p, Release: float64(arg % 7), ID: nextID}
			nextID++
			a, b := p*2, float64(arg%5)
			tr.InsertVals(k, a, b)
			fl.InsertVals(k, a, b)
		case 1: // delete-min
			gk, gok := fl.DeleteMin()
			wk, wok := tr.DeleteMin()
			if gok != wok || gk != wk {
				t.Fatalf("op %d: DeleteMin got (%v,%v) want (%v,%v)", pc, gk, gok, wk, wok)
			}
		case 2: // delete-max
			gk, gok := fl.DeleteMax()
			wk, wok := tr.DeleteMax()
			if gok != wok || gk != wk {
				t.Fatalf("op %d: DeleteMax got (%v,%v) want (%v,%v)", pc, gk, gok, wk, wok)
			}
		case 3: // delete an arbitrary (maybe absent) key
			k := Key{P: float64(arg%16) + 0.5, Release: float64(arg % 7), ID: int(arg) % (nextID + 1)}
			if got, want := fl.Delete(k), tr.Delete(k); got != want {
				t.Fatalf("op %d: Delete(%v) got %v want %v", pc, k, got, want)
			}
		case 4: // rank query at a probe key (stored or not)
			k := Key{P: float64(arg%16) + 0.5, Release: float64(arg % 7), ID: int(arg) % (nextID + 1)}
			gb, gp, ga, gb2, gaft := fl.RankStatsVals(k)
			wb, wp, wa, wb2, waft := tr.RankStatsVals(k)
			if gb != wb || gaft != waft || !approxEq(gp, wp) || !approxEq(ga, wa) || !approxEq(gb2, wb2) {
				t.Fatalf("op %d: RankStatsVals(%v) got (%d,%v,%v,%v,%d) want (%d,%v,%v,%v,%d)",
					pc, k, gb, gp, ga, gb2, gaft, wb, wp, wa, wb2, waft)
			}
			b2, p2, aft2 := fl.RankStats(k)
			if b2 != wb || aft2 != waft || !approxEq(p2, wp) {
				t.Fatalf("op %d: RankStats(%v) got (%d,%v,%d) want (%d,%v,%d)", pc, k, b2, p2, aft2, wb, wp, waft)
			}
			gmin, gminOK := fl.Min()
			wmin, wminOK := tr.Min()
			gmax, gmaxOK := fl.Max()
			wmax, wmaxOK := tr.Max()
			if gminOK != wminOK || gmin != wmin || gmaxOK != wmaxOK || gmax != wmax {
				t.Fatalf("op %d: Min/Max diverge: (%v,%v)/(%v,%v) want (%v,%v)/(%v,%v)",
					pc, gmin, gminOK, gmax, gmaxOK, wmin, wminOK, wmax, wmaxOK)
			}
		case 5: // snapshot + restore the flat index, continue on the copy
			fl = roundTripFlat(t, fl)
		}
		// Invariants after every op.
		if fl.Len() != tr.Len() {
			t.Fatalf("op %d: Len got %d want %d", pc, fl.Len(), tr.Len())
		}
		if !approxEq(fl.SumP(), tr.SumP()) {
			t.Fatalf("op %d: SumP got %v want %v", pc, fl.SumP(), tr.SumP())
		}
		ga, gb := fl.SumVals()
		wa, wb := tr.SumVals()
		if !approxEq(ga, wa) || !approxEq(gb, wb) {
			t.Fatalf("op %d: SumVals got (%v,%v) want (%v,%v)", pc, ga, gb, wa, wb)
		}
	}
	// Final full-order check.
	got, want := fl.Keys(), tr.Keys()
	if len(got) != len(want) {
		t.Fatalf("final: %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("final key %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestFlatDifferentialRandom runs the flat-vs-treap differential model under
// long random operation streams (always on, independent of fuzzing).
func TestFlatDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4000)
		rng.Read(ops)
		applyOpsFlatVsTreap(t, uint64(seed)*0x9e37+1, ops)
	}
}

// FuzzFlatVsTreap lets the fuzzer search for operation interleavings —
// including mid-sequence snapshot/restore — where the flat index diverges
// from the treap.
func FuzzFlatVsTreap(f *testing.F) {
	f.Add(uint64(1), []byte{0, 3, 0, 7, 4, 5, 1, 0, 0, 9, 2, 0, 3, 7})
	f.Add(uint64(42), []byte{0, 1, 0, 1, 5, 0, 0, 1, 4, 1, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		applyOpsFlatVsTreap(t, seed, ops)
	})
}

// TestFlatLeafChurnRecyclesArena hammers one index through many
// insert/delete cycles spanning multiple leaves and checks the leaf arena
// reaches steady state: once the working set's high-water mark is seen, the
// free list absorbs all further churn and the arena stops growing.
func TestFlatLeafChurnRecyclesArena(t *testing.T) {
	fl := NewFlat()
	tr := New(7)
	rng := rand.New(rand.NewSource(99))
	id := 0
	arenaAfterWarmup := -1
	// Seed a resident working set, then churn it with balanced
	// insert/delete cycles: the live count oscillates but never trends up,
	// so any arena growth past warm-up is a recycling failure.
	for i := 0; i < 100; i++ {
		k := Key{P: rng.Float64() * 10, Release: rng.Float64(), ID: id}
		id++
		fl.Insert(k)
		tr.Insert(k)
	}
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < 90; i++ {
			k := Key{P: rng.Float64() * 10, Release: rng.Float64(), ID: id}
			id++
			fl.Insert(k)
			tr.Insert(k)
		}
		for i := 0; i < 90; i++ {
			if rng.Intn(2) == 0 {
				gk, _ := fl.DeleteMin()
				wk, _ := tr.DeleteMin()
				if gk != wk {
					t.Fatalf("cycle %d: DeleteMin %v want %v", cycle, gk, wk)
				}
			} else {
				gk, _ := fl.DeleteMax()
				wk, _ := tr.DeleteMax()
				if gk != wk {
					t.Fatalf("cycle %d: DeleteMax %v want %v", cycle, gk, wk)
				}
			}
		}
		if cycle == 10 {
			arenaAfterWarmup = len(fl.leaves)
		}
	}
	if arenaAfterWarmup < 0 || len(fl.leaves) > 2*arenaAfterWarmup {
		t.Fatalf("leaf arena grew from %d to %d leaves under steady churn; free list not recycling",
			arenaAfterWarmup, len(fl.leaves))
	}
	probe := Key{P: 5, Release: 0.5, ID: id}
	gb, gp, gaft := fl.RankStats(probe)
	wb, wp, waft := tr.RankStats(probe)
	if gb != wb || gaft != waft || !approxEq(gp, wp) {
		t.Fatalf("post-churn RankStats got (%d,%v,%d) want (%d,%v,%d)", gb, gp, gaft, wb, wp, waft)
	}
}

// TestFlatRestoreRejectsCorruption spot-checks the restore validations the
// engine-level fuzz also exercises: out-of-order keys and oversized leaf
// counts must fail with positioned errors, never build a bad index.
func TestFlatRestoreRejectsCorruption(t *testing.T) {
	mangle := func(name string, f func(e *snapshot.Encoder)) {
		sw := snapshot.AppendWriter(nil)
		sw.Section("FLAT", f)
		if err := sw.Close(); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		sr, err := snapshot.NewReader(bytes.NewReader(sw.Bytes()))
		if err != nil {
			t.Fatalf("%s: reader: %v", name, err)
		}
		d, err := sr.Section("FLAT")
		if err != nil {
			t.Fatalf("%s: section: %v", name, err)
		}
		nf := NewFlat()
		if err := nf.Restore(d); err == nil {
			t.Fatalf("%s: corrupt flat snapshot restored without error", name)
		}
	}
	elem := func(e *snapshot.Encoder, p float64, id int) {
		e.F64(p)
		e.F64(0)
		e.Int(id)
		e.F64(0)
		e.F64(0)
	}
	sums := func(e *snapshot.Encoder, p float64) {
		e.F64(p)
		e.F64(0)
		e.F64(0)
	}
	group := func(e *snapshot.Encoder, nleaves int, p float64) {
		e.U32(uint32(nleaves))
		sums(e, p)
	}
	mangle("keys out of order", func(e *snapshot.Encoder) {
		e.U64(2)
		sums(e, 8)
		e.U64(1)
		group(e, 1, 8)
		e.U32(2)
		sums(e, 8)
		elem(e, 5, 1)
		elem(e, 3, 2) // P goes backwards
	})
	mangle("leaf count above cap", func(e *snapshot.Encoder) {
		e.U64(leafCap + 1)
		sums(e, 1)
		e.U64(1)
		group(e, 1, 1)
		e.U32(leafCap + 1)
		sums(e, 1)
		elem(e, 1, 1)
	})
	mangle("group leaf count above cap", func(e *snapshot.Encoder) {
		e.U64(groupCap + 1)
		sums(e, 1)
		e.U64(1)
		group(e, groupCap+1, 1)
		for i := 0; i <= groupCap; i++ {
			e.U32(1)
			sums(e, 1)
			elem(e, float64(i)+1, i+1)
		}
	})
	mangle("element total mismatch", func(e *snapshot.Encoder) {
		e.U64(3)
		sums(e, 1)
		e.U64(1)
		group(e, 1, 1)
		e.U32(1)
		sums(e, 1)
		elem(e, 1, 1)
	})
}
