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

// TestLineageDeltaWriteSteadyState pins a steady-state delta write: the base
// tree is kept from the previous write, so only the new payload is parsed,
// and the delta and self-check buffers are reused — O(sections) objects and
// under 1/8 of the payload in bytes.
func TestLineageDeltaWriteSteadyState(t *testing.T) {
	const shards, sections = 4, 2 + 4*8 + 1
	l := openL(t, filepath.Join(t.TempDir(), "ckpt"), LineageOptions{DeltaEvery: 100})
	for n := 0; n < 5; n++ { // a full, then deltas until both buffers have grown
		if _, err := l.Write(fleetPayload(t, shards, n), false); err != nil {
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
	if b > uint64(len(payload)/8) {
		t.Errorf("delta write allocated %d bytes for a %d-byte payload, want under 1/8", b, len(payload))
	}
	if l.prevTree == nil || &l.prevTree.payload[0] != &l.prev[0] {
		t.Error("the write did not keep its payload's tree, aimed at the retained base, for the next write")
	}
}

// TestLineageRecoverReusesBuffers pins recovery of a full plus k deltas at
// two reassembly buffers, alternated: beyond the files it reads, it
// allocates about two payloads, not one per delta.
func TestLineageRecoverReusesBuffers(t *testing.T) {
	const shards, k = 2, 5
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: k})
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
	var got []byte
	var info RecoverInfo
	var err error
	_, b := allocs(func() { got, info, err = RecoverLineage(path) })
	if err != nil || info.Applied != k || !bytes.Equal(got, last) {
		t.Fatalf("recover: %v (info %+v)", err, info)
	}
	if limit := uint64(files) + uint64(2.25*float64(len(last))); b > limit {
		t.Errorf("recovering a full and %d deltas allocated %d bytes: %d of files read and %.2f payloads more (limit 2.25)",
			k, b, files, float64(int64(b)-files)/float64(len(last)))
	}
}
