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
	inner := [][2][]byte{sec("FLET", []byte{byte(shards), 0, 0, 0})}
	for k := 0; k < shards; k++ {
		jobs := bytes.Repeat([]byte{byte(k + 1)}, 200_000+500*n)
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
// a lineage that goes on writing deltas: the chain is rebuilt in two
// reassembly buffers, alternated, and the last one rebuilt becomes the base
// as it is. Beyond the files it reads, recovery allocates about two
// payloads: not one per delta, and no copy for the base. The next write is a
// delta chained to the recovered seq.
func TestLineageRecoverReusesBuffers(t *testing.T) {
	const shards, k = 2, 5
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 2 * k})
	var last []byte
	for n := 0; n <= k; n++ {
		last = fleetPayload(t, shards, n)
		if _, err := l.Write(last, false); err != nil {
			t.Fatal(err)
		}
	}
	var files int64
	for _, e := range l.Entries() {
		files += e.Size
	}
	l2 := openL(t, path, LineageOptions{DeltaEvery: 2 * k})
	var got []byte
	var info RecoverInfo
	var err error
	_, b := allocs(func() { got, info, err = l2.Recover() })
	if err != nil || info.Applied != k || !bytes.Equal(got, last) {
		t.Fatalf("recover: %v (info %+v)", err, info)
	}
	if limit := uint64(files) + uint64(2.25*float64(len(last))); b > limit {
		t.Errorf("recovering a full and %d deltas allocated %d bytes: %d of files read and %.2f payloads more (limit 2.25)",
			k, b, files, float64(int64(b)-files)/float64(len(last)))
	}
	if !aliases(l2.prev, got) || len(l2.prev) != len(got) {
		t.Error("the recovered payload is not the lineage's base as it is")
	}
	e, err := l2.Write(fleetPayload(t, shards, k+1), false)
	if err != nil || e.Kind != "delta" || e.Base != info.Seq {
		t.Fatalf("first write after recovering seq %d: %+v, %v; want a delta on it", info.Seq, e, err)
	}
}
