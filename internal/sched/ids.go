package sched

import "slices"

// IDs is the job-id table: it assigns compact indices 0..N-1 to external
// job ids in insertion order and answers id→index lookups in O(1). While the id span stays within a constant
// factor of the id count (the common case: generators number jobs 0..N-1)
// a lookup is a direct slice index; the table migrates to a map once —
// never back, until the next Reset or Build — when a far-off id would blow
// the span up or an id arrives below the current base.
//
// The engine's job table grows it one feed at a time (Add). A pass over a
// known job slice (the outcome audit, Instance.Validate) lays it out from
// the jobs' min/max span first (Build), so it picks the direct table or the
// map up front and never migrates. The zero value is ready.
type IDs struct {
	dense []int32 // dense[id-minID] is the compact index, -1 for holes
	minID int
	byID  map[int]int32
	n     int
}

// Reset empties the table, keeping its direct-table storage, and reserves
// room for about hint ids.
func (ix *IDs) Reset(hint int) {
	ix.dense = slices.Grow(ix.dense[:0], hint)
	ix.byID = nil
	ix.n = 0
}

// Build resets the table to the ids of jobs in slice order, reusing its
// storage, and returns the position of the first job whose id repeats an
// earlier one, or -1. The direct table is laid out up front when the id
// span is at most 4n+1024 slots (computed in uint64, so a wide span cannot
// overflow into a spuriously small one); otherwise the ids go to the map.
func (ix *IDs) Build(jobs []Job) (dup int) {
	ix.Reset(0)
	if len(jobs) == 0 {
		return -1
	}
	minID, maxID := jobs[0].ID, jobs[0].ID
	for k := range jobs {
		minID, maxID = min(minID, jobs[k].ID), max(maxID, jobs[k].ID)
	}
	if span := uint64(maxID) - uint64(minID) + 1; span <= uint64(4*len(jobs)+1024) {
		ix.minID = minID
		ix.dense = growTo(ix.dense, int(span))
		for i := range ix.dense {
			ix.dense[i] = -1
		}
	} else {
		ix.byID = make(map[int]int32, len(jobs))
	}
	dup = -1
	for k := range jobs {
		if _, fresh := ix.Add(jobs[k].ID); !fresh && dup < 0 {
			dup = k
		}
	}
	return dup
}

// Add assigns the next compact index to id, returning (index, true), or
// (-1, false) if the id was already added.
func (ix *IDs) Add(id int) (k int, fresh bool) {
	if ix.byID != nil {
		if _, dup := ix.byID[id]; dup {
			return -1, false
		}
		ix.byID[id] = int32(ix.n)
		ix.n++
		return ix.n - 1, true
	}
	if len(ix.dense) == 0 {
		ix.minID = id
		ix.dense = append(ix.dense, 0)
		ix.n = 1
		return 0, true
	}
	off := id - ix.minID
	switch {
	case off >= 0 && off < len(ix.dense):
		if ix.dense[off] != -1 {
			return -1, false
		}
		ix.dense[off] = int32(ix.n)
	case off >= len(ix.dense):
		// Keep the table within a constant factor of the id count (Build's
		// density rule); fall back to a map when a far-off id would blow
		// the table up.
		if off >= 4*(ix.n+1)+1024 {
			ix.toMap()
			return ix.Add(id)
		}
		for len(ix.dense) < off {
			ix.dense = append(ix.dense, -1)
		}
		ix.dense = append(ix.dense, int32(ix.n))
	default: // id below the current base: rebasing would be O(n) per id
		ix.toMap()
		return ix.Add(id)
	}
	ix.n++
	return ix.n - 1, true
}

// Of returns the compact index of id, or -1.
func (ix *IDs) Of(id int) int {
	if ix.byID != nil {
		if k, ok := ix.byID[id]; ok {
			return int(k)
		}
		return -1
	}
	if k := id - ix.minID; k >= 0 && k < len(ix.dense) {
		return int(ix.dense[k])
	}
	return -1
}

func (ix *IDs) toMap() {
	ix.byID = make(map[int]int32, 2*ix.n)
	for off, v := range ix.dense {
		if v != -1 {
			ix.byID[ix.minID+off] = v
		}
	}
	ix.dense = nil
}
