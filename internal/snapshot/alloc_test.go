//go:build !race

package snapshot

import (
	"bytes"
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
