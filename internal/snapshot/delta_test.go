package snapshot

import (
	"bytes"
	"strings"
	"testing"
)

// buildContainer serializes sections into a container. Each section is
// (tag, payload); a payload may itself be container bytes (nesting).
func buildContainer(t *testing.T, sections ...[2][]byte) []byte {
	t.Helper()
	w := AppendWriter(nil)
	for _, s := range sections {
		w.Section(string(s[0]), func(e *Encoder) { e.Raw(s[1]) })
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func sec(tag string, payload []byte) [2][]byte { return [2][]byte{[]byte(tag), payload} }

// roundTripDelta encodes base→next as a delta and applies it back,
// asserting bit-exact reconstruction. Returns the delta bytes.
func roundTripDelta(t *testing.T, base, next []byte, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := EncodeDelta(&buf, base, next, 1, 2, chunk); err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	got, info, err := ApplyDelta(base, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !bytes.Equal(got, next) {
		t.Fatalf("delta round-trip diverged: %d bytes reconstructed, %d expected", len(got), len(next))
	}
	if info.BaseSeq != 1 || info.Seq != 2 {
		t.Fatalf("chain info = %+v", info)
	}
	return buf.Bytes()
}

func TestDeltaRoundTripFlat(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 3*DefaultDeltaChunk+100)
	base := buildContainer(t, sec("AAAA", []byte("hello")), sec("BBBB", big))
	// Mutate one chunk of BBBB, grow AAAA, leave structure alone.
	big2 := append([]byte(nil), big...)
	big2[DefaultDeltaChunk+5] ^= 0xFF
	next := buildContainer(t, sec("AAAA", []byte("hello world, grown")), sec("BBBB", big2))
	delta := roundTripDelta(t, base, next, 0)
	if len(delta) >= len(next) {
		t.Fatalf("delta (%d bytes) not smaller than full (%d bytes)", len(delta), len(next))
	}
}

func TestDeltaAppendOnlyLeafStaysSmall(t *testing.T) {
	// Simulates the engine's append-mostly sections: 1 MiB stable prefix,
	// a little churn at the tail. The delta must cost ~the churn.
	stable := bytes.Repeat([]byte{0x5A}, 1<<20)
	base := buildContainer(t, sec("JOBS", stable))
	next := buildContainer(t, sec("JOBS", append(append([]byte(nil), stable...), bytes.Repeat([]byte{0x77}, 2048)...)))
	delta := roundTripDelta(t, base, next, 0)
	if len(delta) > 3*DefaultDeltaChunk {
		t.Fatalf("append-only delta = %d bytes for 2 KiB of churn", len(delta))
	}
}

func TestDeltaNestedContainers(t *testing.T) {
	inner1 := buildContainer(t, sec("SESS", []byte("shard one state")), sec("JOBS", bytes.Repeat([]byte{1}, 9000)))
	inner2 := buildContainer(t, sec("SESS", []byte("shard two state")), sec("JOBS", bytes.Repeat([]byte{2}, 9000)))
	base := buildContainer(t, sec("FLET", []byte{2, 0, 0, 0}), sec("SHRD", inner1), sec("SHRD", inner2))

	// Only shard two's SESS changes; the shard-one subtree and both JOBS
	// must ride through as unchanged leaves.
	inner2b := buildContainer(t, sec("SESS", []byte("shard two MOVED")), sec("JOBS", bytes.Repeat([]byte{2}, 9000)))
	next := buildContainer(t, sec("FLET", []byte{2, 0, 0, 0}), sec("SHRD", inner1), sec("SHRD", inner2b))
	delta := roundTripDelta(t, base, next, 0)
	if len(delta) > 2048 {
		t.Fatalf("nested delta = %d bytes for a tiny leaf edit", len(delta))
	}
}

func TestDeltaStructuralChanges(t *testing.T) {
	inner1 := buildContainer(t, sec("SESS", []byte("one")))
	inner2 := buildContainer(t, sec("SESS", []byte("two")))
	inner3 := buildContainer(t, sec("SESS", []byte("three")))

	t.Run("section added", func(t *testing.T) {
		base := buildContainer(t, sec("FLET", []byte{2}), sec("SHRD", inner1), sec("SHRD", inner2))
		next := buildContainer(t, sec("FLET", []byte{3}), sec("SHRD", inner1), sec("SHRD", inner2), sec("SHRD", inner3))
		roundTripDelta(t, base, next, 0)
	})
	t.Run("section removed", func(t *testing.T) {
		base := buildContainer(t, sec("FLET", []byte{3}), sec("SHRD", inner1), sec("SHRD", inner2), sec("SHRD", inner3))
		next := buildContainer(t, sec("FLET", []byte{2}), sec("SHRD", inner1), sec("SHRD", inner2))
		roundTripDelta(t, base, next, 0)
	})
	t.Run("leaf shrunk", func(t *testing.T) {
		base := buildContainer(t, sec("DATA", bytes.Repeat([]byte{9}, 10000)))
		next := buildContainer(t, sec("DATA", bytes.Repeat([]byte{9}, 100)))
		roundTripDelta(t, base, next, 0)
	})
	t.Run("identical", func(t *testing.T) {
		base := buildContainer(t, sec("DATA", []byte("same")))
		var buf bytes.Buffer
		n, err := EncodeDelta(&buf, base, base, 5, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("identical containers emitted %d changed leaves", n)
		}
		got, _, err := ApplyDelta(base, bytes.NewReader(buf.Bytes()))
		if err != nil || !bytes.Equal(got, base) {
			t.Fatalf("identity delta failed: %v", err)
		}
	})
}

func TestDeltaWrongBaseRejected(t *testing.T) {
	base := buildContainer(t, sec("DATA", []byte("the real base")))
	next := buildContainer(t, sec("DATA", []byte("the next state")))
	var buf bytes.Buffer
	if _, err := EncodeDelta(&buf, base, next, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	other := buildContainer(t, sec("DATA", []byte("an imposter base")))
	if _, _, err := ApplyDelta(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("delta applied to the wrong base")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("wrong-base error %v does not mention the CRC", err)
	}
}

func TestDeltaCorruptionRejected(t *testing.T) {
	big := bytes.Repeat([]byte{0xCD}, 2*DefaultDeltaChunk)
	base := buildContainer(t, sec("DATA", big))
	big2 := append([]byte(nil), big...)
	big2[10] = 0
	next := buildContainer(t, sec("DATA", big2))
	var buf bytes.Buffer
	if _, err := EncodeDelta(&buf, base, next, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	delta := buf.Bytes()
	for _, off := range []int{11, len(delta) / 2, len(delta) - 3} {
		mut := append([]byte(nil), delta...)
		mut[off] ^= 0x40
		if _, _, err := ApplyDelta(base, bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d of %d not detected", off, len(delta))
		}
	}
	for _, cut := range []int{len(delta) - 1, len(delta) / 2, 15} {
		if _, _, err := ApplyDelta(base, bytes.NewReader(delta[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d not detected", cut, len(delta))
		}
	}
}

// TestDeltaTreeVerifies pins the tree walk as a full integrity check — every
// frame's CRC at every nesting level, the END terminator, no trailing bytes —
// whose whole-container CRC is the bytes' own.
func TestDeltaTreeVerifies(t *testing.T) {
	inner := buildContainer(t, sec("SESS", []byte("shard state")), sec("JOBS", bytes.Repeat([]byte{4}, 300)))
	for name, good := range map[string][]byte{
		"flat":   buildContainer(t, sec("DATA", []byte("payload"))),
		"nested": buildContainer(t, sec("FLET", []byte{1}), sec("SHRD", inner)),
	} {
		tree, err := parseDeltaTree(good)
		if err != nil {
			t.Fatalf("%s: walk of clean bytes: %v", name, err)
		}
		if tree.sum != Checksum(good) {
			t.Fatalf("%s: walk CRC %08x, bytes %08x", name, tree.sum, Checksum(good))
		}
		if _, err := parseDeltaTree(good[:len(good)-4]); err == nil {
			t.Fatalf("%s: truncated container verified", name)
		}
		for _, off := range []int{12, len(good) / 2, len(good) - 20} {
			mut := append([]byte(nil), good...)
			mut[off] ^= 1
			if _, err := parseDeltaTree(mut); err == nil {
				t.Fatalf("%s: bit flip at %d of %d verified", name, off, len(good))
			}
		}
		if _, err := parseDeltaTree(append(append([]byte(nil), good...), 0xEE)); err == nil {
			t.Fatalf("%s: trailing garbage verified", name)
		}
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	dup := buildContainer(t, sec("SESS", []byte("a")), sec("SESS", []byte("b")))
	r, err := NewReader(bytes.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("SESS"); err != nil {
		t.Fatalf("first SESS: %v", err)
	}
	if _, _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("second SESS not rejected as a duplicate: %v", err)
	}

	// Repeatable tags stay legal (the fleet's SHRD frames).
	r2, err := NewReader(bytes.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	r2.Repeatable("SESS")
	if _, err := r2.Section("SESS"); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Section("SESS"); err != nil {
		t.Fatalf("repeatable tag rejected: %v", err)
	}
	if err := r2.End(); err != nil {
		t.Fatal(err)
	}

	// AllowDuplicates disables the guard wholesale (structural walkers).
	r3, err := NewReader(bytes.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	r3.AllowDuplicates()
	for i := 0; i < 2; i++ {
		if _, err := r3.Section("SESS"); err != nil {
			t.Fatal(err)
		}
	}
}
