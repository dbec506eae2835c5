package sched

import "testing"

func idJobs(ids ...int) []Job {
	jobs := make([]Job, len(ids))
	for k, id := range ids {
		jobs[k] = Job{ID: id, Release: float64(k), Weight: 1, Deadline: NoDeadline, Proc: []float64{1}}
	}
	return jobs
}

func TestIndexExtremeIDSpan(t *testing.T) {
	// maxID-minID+1 overflows int for this pair; the span math must not
	// wrap into a spuriously valid dense-table size.
	jobs := idJobs(-4611686018427387904, 4611686018427387904)
	var ix IDs
	if dup := ix.Build(jobs); dup != -1 {
		t.Fatalf("Build reported duplicate at %d", dup)
	}
	if ix.byID == nil {
		t.Fatal("an overflowing span must build the map")
	}
	for k := range jobs {
		if got := ix.Of(jobs[k].ID); got != k {
			t.Fatalf("Of(%d) = %d, want %d", jobs[k].ID, got, k)
		}
	}
	if ix.Of(0) != -1 {
		t.Fatalf("Of(absent) = %d, want -1", ix.Of(0))
	}
}

func TestIndexDenseAndSparse(t *testing.T) {
	for _, ids := range [][]int{{100, 102, 101}, {5, 1 << 40, -3}} {
		var ix IDs
		jobs := idJobs(ids...)
		if dup := ix.Build(jobs); dup != -1 {
			t.Fatalf("%v: Build reported duplicate at %d", ids, dup)
		}
		for k := range jobs {
			if ix.Of(jobs[k].ID) != k {
				t.Fatalf("%v: round trip failed at %d", ids, k)
			}
		}
		if ix.Of(99) != -1 || ix.Of(103) != -1 {
			t.Fatalf("%v: absent IDs must map to -1", ids)
		}
	}
}

// TestIDsLayout pins which id streams stay on the direct table: Build lays
// it out for spans up to 4n+1024 and never migrates, Add migrates on a
// far-off or below-base id but not when a dense stream outgrows its reserve,
// and Reset and Build keep the table's storage.
func TestIDsLayout(t *testing.T) {
	var ix IDs
	ix.Build(idJobs(9, 3, 7, 1)) // below the first id: fine once laid out
	if ix.byID != nil || len(ix.dense) != 9 {
		t.Fatalf("Build of a compact span: map %v, table len %d", ix.byID != nil, len(ix.dense))
	}
	ix.Build(idJobs(0, 4*2+1023))
	if ix.byID != nil {
		t.Fatal("span 4n+1024 must stay on the direct table")
	}
	ix.Build(idJobs(0, 4*2+1024))
	if ix.byID == nil {
		t.Fatal("span 4n+1025 must build the map")
	}

	ix.Reset(0)
	ix.Add(100)
	ix.Add(5)
	if ix.byID == nil {
		t.Fatal("an id below the base must migrate to the map")
	}
	ix.Reset(0)
	ix.Add(0)
	ix.Add(1 << 40)
	if ix.byID == nil {
		t.Fatal("a far-off id must migrate to the map")
	}

	ix.Reset(16)
	for id := 0; id < 100; id++ {
		ix.Add(id)
	}
	if ix.byID != nil {
		t.Fatal("a dense stream growing past its reserve must stay on the direct table")
	}

	ix.Reset(64)
	for id := 0; id < 64; id++ {
		ix.Add(id)
	}
	c := cap(ix.dense)
	ix.Reset(64)
	ix.Build(idJobs(3, 1, 2))
	if ix.byID != nil || cap(ix.dense) != c {
		t.Fatalf("Reset/Build dropped the table's storage: cap %d, was %d", cap(ix.dense), c)
	}
}

// TestIDsBuildFindsFirstDuplicate drives Build over dense and sparse id
// spaces: the reported position is the first repeat, and later ids still
// resolve.
func TestIDsBuildFindsFirstDuplicate(t *testing.T) {
	for _, stride := range []int{1, 1 << 40} {
		jobs := idJobs(0, stride, 2*stride, stride, 0)
		var ix IDs
		if dup := ix.Build(jobs); dup != 3 {
			t.Fatalf("stride %d: first duplicate at %d, want 3", stride, dup)
		}
		if ix.Of(2*stride) != 2 {
			t.Fatalf("stride %d: Of after a duplicate = %d, want 2", stride, ix.Of(2*stride))
		}
	}
}

// TestInstanceValidateFirstError pins that Validate reports the first
// failing job: a duplicate id after a malformed job reports the malformed
// job, and a malformed job after a duplicate reports the duplicate.
func TestInstanceValidateFirstError(t *testing.T) {
	in := &Instance{Machines: 1, Jobs: idJobs(0, 1, 2, 1)}
	in.Jobs[2].Weight = 0
	if err := in.Validate(); err == nil || err.Error() != "sched: job 2 has non-positive weight 0" {
		t.Fatalf("malformed job before a duplicate: %v", err)
	}
	in = &Instance{Machines: 1, Jobs: idJobs(0, 0, 2, 3)}
	in.Jobs[2].Weight = 0
	if err := in.Validate(); err == nil || err.Error() != "sched: duplicate job id 0" {
		t.Fatalf("duplicate before a malformed job: %v", err)
	}
}
