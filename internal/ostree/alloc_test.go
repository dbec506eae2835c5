//go:build !race

package ostree

import (
	"math/rand"
	"testing"
)

// TestIndexChurnAllocatesNothing pins the property both rank indexes are
// built around: at a steady population, insert / delete-min / delete-max /
// rank recycle their own storage (the treap's node free list, the flat
// index's leaf slots) and allocate nothing. What they cost in time is the
// ledger's ostree.* rows.
func TestIndexChurnAllocatesNothing(t *testing.T) {
	type index interface {
		Insert(Key)
		DeleteMin() (Key, bool)
		DeleteMax() (Key, bool)
		RankStats(Key) (int, float64, int)
	}
	for name, idx := range map[string]index{"Tree": New(9), "Flat": NewFlat()} {
		rng := rand.New(rand.NewSource(9))
		id := 0
		insert := func() {
			idx.Insert(Key{P: rng.Float64() * 100, Release: rng.Float64(), ID: id})
			id++
		}
		for id < 10000 {
			insert()
		}
		churn := func() {
			insert()
			idx.DeleteMin()
			insert()
			idx.DeleteMax()
			idx.RankStats(Key{P: rng.Float64() * 100, ID: -1})
		}
		if a := testing.AllocsPerRun(5000, churn); a != 0 {
			t.Errorf("%s: %v allocs per insert/delete/rank round at 10k keys, want 0", name, a)
		}
	}
}
