package sched

// Index maps job IDs to compact indices 0..N-1 in instance slice order, so
// schedulers can keep per-job state in dense slices instead of map[int]
// tables. When the instance's IDs span a small range (the common case:
// generators number jobs 0..N-1) the mapping is a direct slice lookup; it
// falls back to a map for sparse or negative ID spaces.
type Index struct {
	jobs []Job

	// dense[id-minID] is the compact index, -1 for holes; nil when the ID
	// space is too sparse, in which case byID is used.
	dense []int32
	minID int
	byID  map[int]int32
}

// Index builds the compact job index of the instance. It is O(N) and should
// be built once per run.
func (ins *Instance) Index() *Index {
	ix := &Index{jobs: ins.Jobs}
	n := len(ins.Jobs)
	if n == 0 {
		return ix
	}
	minID, maxID := ins.Jobs[0].ID, ins.Jobs[0].ID
	for k := 1; k < n; k++ {
		id := ins.Jobs[k].ID
		if id < minID {
			minID = id
		}
		if id > maxID {
			maxID = id
		}
	}
	// Direct-lookup table when the ID span is within a constant factor of N
	// (plus slack for small instances); map fallback otherwise. The span is
	// computed in uint64 so wide ID ranges cannot overflow into a
	// spuriously small (or negative) value.
	if span := uint64(maxID) - uint64(minID) + 1; span <= uint64(4*n+1024) {
		ix.minID = minID
		ix.dense = make([]int32, span)
		for i := range ix.dense {
			ix.dense[i] = -1
		}
		for k := range ins.Jobs {
			ix.dense[ins.Jobs[k].ID-minID] = int32(k)
		}
		return ix
	}
	ix.byID = make(map[int]int32, n)
	for k := range ins.Jobs {
		ix.byID[ins.Jobs[k].ID] = int32(k)
	}
	return ix
}

// Len reports the number of indexed jobs.
func (ix *Index) Len() int { return len(ix.jobs) }

// Of returns the compact index of the job with the given ID, or -1 if the
// instance has no such job.
func (ix *Index) Of(id int) int {
	if ix.dense != nil {
		if k := id - ix.minID; k >= 0 && k < len(ix.dense) {
			return int(ix.dense[k])
		}
		return -1
	}
	if k, ok := ix.byID[id]; ok {
		return int(k)
	}
	return -1
}

// Job returns the job at compact index k.
func (ix *Index) Job(k int) *Job { return &ix.jobs[k] }

// JobByID returns the job with the given ID, or nil if the instance has no
// such job. O(1).
func (ix *Index) JobByID(id int) *Job {
	k := ix.Of(id)
	if k < 0 {
		return nil
	}
	return &ix.jobs[k]
}

// ID returns the job ID at compact index k.
func (ix *Index) ID(k int) int { return ix.jobs[k].ID }
