package engine

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// The engine's job table is a sched.IDs grown one feed at a time; these
// tests drive it in that incremental mode (Reset, then Add per job). The
// layout checks (which id streams stay on the direct table) live with the
// type, in internal/sched.

func TestIDIndexDense(t *testing.T) {
	var ix sched.IDs
	ix.Reset(16)
	for i := 0; i < 100; i++ {
		k, ok := ix.Add(i)
		if !ok || k != i {
			t.Fatalf("add(%d) = (%d, %v)", i, k, ok)
		}
	}
	for i := 0; i < 100; i++ {
		if got := ix.Of(i); got != i {
			t.Fatalf("of(%d) = %d", i, got)
		}
	}
	if ix.Of(100) != -1 || ix.Of(-1) != -1 {
		t.Fatal("missing ids must resolve to -1")
	}
}

func TestIDIndexDuplicate(t *testing.T) {
	var ix sched.IDs
	if _, ok := ix.Add(7); !ok {
		t.Fatal("first add rejected")
	}
	if _, ok := ix.Add(7); ok {
		t.Fatal("duplicate accepted on dense path")
	}
	ix.Add(1 << 40) // migrates to the map
	if _, ok := ix.Add(7); ok {
		t.Fatal("duplicate accepted on map path")
	}
}

func TestIDIndexHolesAndOffsetBase(t *testing.T) {
	var ix sched.IDs
	ids := []int{1000, 1004, 1001, 1010}
	for k, id := range ids {
		got, ok := ix.Add(id)
		if !ok || got != k {
			t.Fatalf("add(%d) = (%d, %v), want %d", id, got, ok, k)
		}
	}
	for k, id := range ids {
		if ix.Of(id) != k {
			t.Fatalf("of(%d) = %d, want %d", id, ix.Of(id), k)
		}
	}
	if ix.Of(1002) != -1 {
		t.Fatal("hole must resolve to -1")
	}
}

func TestIDIndexSparseFallsBackToMap(t *testing.T) {
	var ix sched.IDs
	ix.Add(0)
	if _, ok := ix.Add(1 << 40); !ok {
		t.Fatal("sparse id rejected")
	}
	if ix.Of(0) != 0 || ix.Of(1<<40) != 1 {
		t.Fatal("lookups broken after migration")
	}
}

func TestIDIndexBelowBaseFallsBackToMap(t *testing.T) {
	var ix sched.IDs
	ix.Add(100)
	if k, ok := ix.Add(5); !ok || k != 1 {
		t.Fatalf("add below base = (%d, %v)", k, ok)
	}
	if ix.Of(100) != 0 || ix.Of(5) != 1 {
		t.Fatal("lookups broken after below-base migration")
	}
}

// TestIDIndexRandomizedVsMap differentially checks the index against a plain
// map over random id streams that cross the dense/sparse boundary.
func TestIDIndexRandomizedVsMap(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ix sched.IDs
		ref := map[int]int{}
		n := 0
		for step := 0; step < 2000; step++ {
			id := rng.Intn(3000)
			if seed%2 == 1 && rng.Intn(50) == 0 {
				id = rng.Intn(1 << 30) // occasionally very sparse
			}
			k, ok := ix.Add(id)
			if _, dup := ref[id]; dup {
				if ok {
					t.Fatalf("seed %d: duplicate %d accepted", seed, id)
				}
				continue
			}
			if !ok || k != n {
				t.Fatalf("seed %d: add(%d) = (%d, %v), want %d", seed, id, k, ok, n)
			}
			ref[id] = n
			n++
		}
		for id, want := range ref {
			if got := ix.Of(id); got != want {
				t.Fatalf("seed %d: of(%d) = %d, want %d", seed, id, got, want)
			}
		}
	}
}
