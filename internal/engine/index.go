package engine

// idIndex is the incremental counterpart of sched.Index: it assigns compact
// indices 0..N-1 to external job ids in feed order and resolves id→index
// lookups in O(1). While the id span stays within a constant factor of the
// job count (the common case: generators number jobs 0..N-1) the mapping is
// a direct slice lookup; it migrates to a map once — never back — when the
// span grows too sparse or an id arrives below the current base.
type idIndex struct {
	dense []int32 // dense[id-minID] is the compact index, -1 for holes
	minID int
	byID  map[int]int32
	n     int
}

// reserve preallocates for about n ids.
func (ix *idIndex) reserve(n int) {
	if n > 0 {
		ix.dense = make([]int32, 0, n)
	}
}

// add assigns the next compact index to id, returning (index, true), or
// (-1, false) if the id was already added.
func (ix *idIndex) add(id int) (int, bool) {
	if ix.byID != nil {
		if _, dup := ix.byID[id]; dup {
			return -1, false
		}
		ix.byID[id] = int32(ix.n)
		ix.n++
		return ix.n - 1, true
	}
	if ix.n == 0 {
		ix.minID = id
		ix.dense = append(ix.dense[:0], int32(0))
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
		// Keep the table within a constant factor of the id count (the
		// same density rule as sched.Index); fall back to a map when a
		// far-off id would blow the table up.
		if off >= 4*(ix.n+1)+1024 {
			ix.toMap()
			return ix.add(id)
		}
		for len(ix.dense) < off {
			ix.dense = append(ix.dense, -1)
		}
		ix.dense = append(ix.dense, int32(ix.n))
	default: // id below the current base: rebasing would be O(n) per id
		ix.toMap()
		return ix.add(id)
	}
	ix.n++
	return ix.n - 1, true
}

// of returns the compact index of id, or -1.
func (ix *idIndex) of(id int) int {
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

func (ix *idIndex) toMap() {
	ix.byID = make(map[int]int32, 2*ix.n)
	for off, v := range ix.dense {
		if v != -1 {
			ix.byID[ix.minID+off] = v
		}
	}
	ix.dense = nil
}
