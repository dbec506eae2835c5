//go:build !race

package snapshot

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"
)

// TestApplyDeltaAllocatesItsOutput pins ApplyDelta's memory at the size of
// what it builds: the reconstruction is one buffer sized from the delta's
// recorded length, unchanged and patched leaves are copied from the base
// straight into it, and nothing else scales with the checkpoint — at most
// 1.1 × the output in bytes allocated.
func TestApplyDeltaAllocatesItsOutput(t *testing.T) {
	shard := func(fill byte, grow int) []byte {
		jobs := bytes.Repeat([]byte{fill}, 400_000+grow)
		return buildContainer(t, sec("SESS", []byte{fill, 1, 2, 3}), sec("JOBS", jobs), sec("OUTC", jobs[:100_000]))
	}
	fleet := func(grow int) []byte {
		inner := buildContainer(t, sec("FLET", []byte{2, 0, 0, 0}), sec("SHRD", shard(1, grow)), sec("SHRD", shard(2, 0)))
		return buildContainer(t, sec("FRNT", []byte("front")), sec("FLTB", inner))
	}
	base, next := fleet(0), fleet(10_000)
	var buf bytes.Buffer
	if _, err := EncodeDelta(&buf, base, next, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	delta := buf.Bytes()

	const runs = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		out, _, err := ApplyDelta(base, bytes.NewReader(delta))
		if err != nil || !bytes.Equal(out, next) {
			t.Fatalf("apply: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.1 * float64(len(next)); perRun > limit {
		t.Fatalf("ApplyDelta allocated %.0f bytes for a %d-byte result (limit %.0f)", perRun, len(next), limit)
	}
}

// fleetPayload builds a front-checkpoint-shaped container of about 1 MB: a
// front leaf, then a fleet of shards nested sessions of seven leaves each,
// whose JOBS and OUTC leaves grow with n (append-mostly state).
func fleetPayload(t *testing.T, shards, n int) []byte {
	t.Helper()
	return churnedFleetPayload(t, shards, n, 0)
}

// churnedFleetPayload is fleetPayload whose sessions also rewrite the first
// churn bytes of their JOBS leaf at every n, and so the leaves cut from its
// prefix: state that changes in place, not only grows.
func churnedFleetPayload(t *testing.T, shards, n, churn int) []byte {
	t.Helper()
	inner := [][2][]byte{sec("FLET", []byte{byte(shards), 0, 0, 0})}
	for k := 0; k < shards; k++ {
		jobs := bytes.Repeat([]byte{byte(k + 1)}, 200_000+500*n)
		for i := range jobs[:churn] {
			jobs[i] = byte(k + n + i)
		}
		inner = append(inner, sec("SHRD", buildContainer(t,
			sec("SESS", []byte{byte(n), byte(k)}), sec("JOBS", jobs), sec("DONE", jobs[:1000]),
			sec("MACH", []byte{1, 2, 3, byte(n)}), sec("EVTQ", jobs[:4000]), sec("OUTC", jobs[:40_000+100*n]),
			sec("POLI", []byte("flowtime/v1")))))
	}
	return buildContainer(t, sec("FRNT", []byte("front")), sec("FLTB", buildContainer(t, inner...)))
}

// allocs runs f once and returns the objects and bytes it allocated.
func allocs(f func()) (objs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestLineageDeltaWriteSteadyState pins a steady-state delta write: the
// write keeps its payload itself as the next base, with the tree it parsed
// from it, so no base is copied or parsed again; the self-check compares
// instead of rebuilding; and the delta buffer is reused. That is
// O(sections) objects and under 1/16 of the payload in bytes. Recycle then
// hands back the base the write retired, and only that.
func TestLineageDeltaWriteSteadyState(t *testing.T) {
	const shards, sections = 4, 2 + 4*8 + 1
	l := openL(t, filepath.Join(t.TempDir(), "ckpt"), LineageOptions{DeltaEvery: 100})
	var prev []byte
	for n := 0; n < 5; n++ { // a full, then deltas until the delta buffer has grown
		prev = fleetPayload(t, shards, n)
		if _, err := l.Write(prev, false); err != nil {
			t.Fatal(err)
		}
	}
	payload := fleetPayload(t, shards, 5)
	var e LineageEntry
	var err error
	objs, b := allocs(func() { e, err = l.Write(payload, false) })
	if err != nil || e.Kind != "delta" {
		t.Fatalf("write: %+v, %v", e, err)
	}
	if limit := uint64(20*sections + 200); objs > limit {
		t.Errorf("delta write allocated %d objects, want ≤ %d (O(sections))", objs, limit)
	}
	if b > uint64(len(payload)/16) {
		t.Errorf("delta write allocated %d bytes for a %d-byte payload, want under 1/16", b, len(payload))
	}
	if !aliases(l.prev, payload) || len(l.prev) != len(payload) || l.prevTree == nil || !aliases(l.prevTree.payload, payload) {
		t.Error("the write did not keep its payload, and the tree parsed from it, as the next base")
	}
	if got := l.Recycle(payload); !aliases(got, prev) || len(got) != 0 {
		t.Error("Recycle of the base did not hand back the base the write retired, emptied")
	}
	if got := l.Recycle(payload); got != nil {
		t.Errorf("a second Recycle of the base handed out %d bytes of capacity again", cap(got))
	}
	other := make([]byte, 10, 20)
	if got := l.Recycle(other); !aliases(got, other) || len(got) != 0 {
		t.Error("Recycle of a buffer the lineage does not hold did not hand it back, emptied")
	}
}

// TestLineageRecoverReusesBuffers pins recovery of a full plus k deltas into
// a lineage that goes on writing deltas: each delta is read just before it is
// applied, into one buffer reused for all of them, and the chain is rebuilt
// in two reassembly buffers, alternated, the last one rebuilt becoming the
// base as it is. So recovery allocates the full, the largest delta and about
// two payloads: not every member at once, not one payload per delta, and no
// copy for the base. The deltas each rewrite about a quarter of the payload,
// so reading them all up front would cost more than the slack. The next
// write is a delta chained to the recovered seq.
func TestLineageRecoverReusesBuffers(t *testing.T) {
	const shards, k, churn = 2, 5, 30_000
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 2 * k})
	var last []byte
	for n := 0; n <= k; n++ {
		last = churnedFleetPayload(t, shards, n, churn)
		if _, err := l.Write(last, false); err != nil {
			t.Fatal(err)
		}
	}
	var full, largest int64
	for _, e := range l.Entries() {
		if e.Kind == "full" {
			full = e.Size
		} else {
			largest = max(largest, e.Size)
		}
	}
	l2 := openL(t, path, LineageOptions{DeltaEvery: 2 * k})
	var got []byte
	var info RecoverInfo
	var err error
	_, b := allocs(func() { got, info, err = l2.Recover() })
	if err != nil || info.Applied != k || !bytes.Equal(got, last) {
		t.Fatalf("recover: %v (info %+v)", err, info)
	}
	if limit := uint64(full+largest) + uint64(2.25*float64(len(last))); b > limit {
		t.Errorf("recovering a full and %d deltas allocated %d bytes: the full, the largest delta (%d + %d) and %.2f payloads more (limit 2.25)",
			k, b, full, largest, float64(int64(b)-full-largest)/float64(len(last)))
	}
	if !aliases(l2.prev, got) || len(l2.prev) != len(got) {
		t.Error("the recovered payload is not the lineage's base as it is")
	}
	e, err := l2.Write(churnedFleetPayload(t, shards, k+1, churn), false)
	if err != nil || e.Kind != "delta" || e.Base != info.Seq {
		t.Fatalf("first write after recovering seq %d: %+v, %v; want a delta on it", info.Seq, e, err)
	}
}

// TestReadAllOneAllocation pins how a snapshot held by a bytes.Reader (what
// a resume from memory passes) is read: one allocation, the copy of its
// bytes, by an append that does not zero what it copies over first.
func TestReadAllOneAllocation(t *testing.T) {
	src := bytes.Repeat([]byte{7}, 1<<20)
	r := bytes.NewReader(src)
	var dst []byte
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(src)
		dst = nil
		if err := readAll(r, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || !bytes.Equal(dst, src) {
		t.Fatalf("readAll of a %d-byte bytes.Reader: %v allocations, %d bytes read; want 1 allocation and every byte", len(src), allocs, len(dst))
	}
}
