package snapshot

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader drives the section reader over arbitrary bytes: every input
// must either parse into CRC-clean sections or fail with an error — never
// panic, never loop forever, never allocate proportionally to a corrupt
// length prefix. Decoding of the payload primitives is exercised on every
// section that survives the CRC.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("SESS", func(e *Encoder) {
		e.U32(4)
		e.F64(1.5)
		e.Str("flowtime/v1")
	})
	w.Section("JOBS", func(e *Encoder) {
		e.U64(2)
		e.I64(7)
		e.F64(0.25)
	})
	w.Close()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:11])
	f.Add([]byte("SCHSNAP\x00"))

	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return
		}
		for sections := 0; sections < 1024; sections++ {
			_, d, err := r.Next()
			if err == io.EOF {
				if err := r.End(); err != nil {
					t.Fatalf("End after clean EOF: %v", err)
				}
				return
			}
			if err != nil {
				return
			}
			// Exercise the decoder primitives; sticky errors must hold.
			n := d.Count(1)
			for i := 0; i < n && d.Err() == nil; i++ {
				d.U8()
			}
			d.U64()
			d.Str()
			_ = d.Done()
		}
	})
}

// leaf frames payload, summed the slow way.
func leaf(w *Writer, tag string, payload []byte) { w.Frame(tag, payload, Checksum(payload)) }

// fuzzContainer builds a checkpoint-shaped container from src: flat (three
// leaves) when shards is 0, else a FLET header plus shards nested SHRD
// containers — the fleet's repeated tag — each holding two leaves. Leaf
// boundaries come from src itself, so the fuzzer moves them.
func fuzzContainer(src []byte, shards int) []byte {
	cut := func(b []byte, k, of int) []byte { return b[len(b)*k/of : len(b)*(k+1)/of] }
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if shards == 0 {
		leaf(w, "SESS", cut(src, 0, 3))
		leaf(w, "JOBS", cut(src, 1, 3))
		leaf(w, "POLI", cut(src, 2, 3))
	} else {
		w.Section("FLET", func(e *Encoder) { e.U32(uint32(shards)) })
		for k := 0; k < shards; k++ {
			part := cut(src, k, shards)
			var inner bytes.Buffer
			iw := NewWriter(&inner)
			leaf(iw, "SESS", cut(part, 0, 2))
			leaf(iw, "JOBS", cut(part, 1, 2))
			iw.Close()
			leaf(w, "SHRD", inner.Bytes())
		}
	}
	w.Close()
	return buf.Bytes()
}

// FuzzDelta drives the delta codec over fuzz-built base and target
// containers, flat and nested, with any chunk size: applying the encoded
// delta must give back the target exactly, and a bit-flipped or truncated
// delta must fail or reproduce a payload matching its recorded CRC — never
// panic. It also holds the self-check's compare mode to the materialising
// apply: over the clean delta, flipped and truncated deltas, a wrong base
// and a flipped target, compare mode accepts exactly when applyDelta's
// rebuild equals the payload it is compared with.
func FuzzDelta(f *testing.F) {
	f.Add([]byte("state before the checkpoint"), []byte("state after the checkpoint, grown"), uint8(0), uint8(0), uint8(3), uint32(40))
	f.Add(bytes.Repeat([]byte{7}, 300), append(bytes.Repeat([]byte{7}, 290), 1, 2, 3), uint8(2), uint8(2), uint8(16), uint32(9))
	f.Add([]byte("one shard"), []byte("two shards now"), uint8(1), uint8(2), uint8(0), uint32(1))
	f.Add([]byte("nested"), []byte("flat"), uint8(3), uint8(0), uint8(5), uint32(77))

	f.Fuzz(func(t *testing.T, a, b []byte, baseShards, newShards, chunk uint8, mut uint32) {
		base := fuzzContainer(a, int(baseShards%4))
		next := fuzzContainer(b, int(newShards%4))
		var buf bytes.Buffer
		if _, err := EncodeDelta(&buf, base, next, 1, 2, int(chunk%64)); err != nil {
			t.Fatalf("EncodeDelta: %v", err)
		}
		delta := buf.Bytes()
		baseTree, _ := parseDeltaTree(base)
		nextTree, _ := parseDeltaTree(next)
		c := int(chunk % 64)
		if c == 0 {
			c = DefaultDeltaChunk
		}
		if size := deltaSize(planDelta(nextTree, baseTree, c, nil), countNodes(nextTree), c); size != len(delta) {
			t.Fatalf("deltaSize %d for a %d-byte delta", size, len(delta))
		}
		got, info, err := ApplyDelta(base, bytes.NewReader(delta))
		if err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("round trip rebuilt %d bytes, want the %d-byte target", len(got), len(next))
		}
		if info.BaseSeq != 1 || info.Seq != 2 {
			t.Fatalf("chain info %+v", info)
		}

		// compare runs both sinks of applyDelta over (baseData, d): compare
		// mode against want must accept exactly when the rebuild equals it.
		compare := func(what string, want, baseData []byte, tree *deltaNode, d []byte) bool {
			built, _, err := applyDelta(&buildSink{}, baseData, tree, d)
			rebuilt := err == nil && bytes.Equal(built, want)
			checked := checkDelta(want, baseData, tree, d)
			if rebuilt != (checked == nil) {
				t.Fatalf("%s: rebuild equal to the payload %v (apply error %v), compare mode error %v", what, rebuilt, err, checked)
			}
			return rebuilt
		}
		if !compare("clean delta", next, base, nil, delta) || !compare("clean delta, parsed base", next, base, baseTree, delta) {
			t.Fatal("the clean delta does not rebuild its target")
		}

		flipped := append([]byte(nil), delta...)
		flipped[int(mut>>8)%len(flipped)] ^= byte(mut) | 1
		for _, bad := range [][]byte{flipped, delta[:int(mut)%len(delta)]} {
			out, info, err := ApplyDelta(base, bytes.NewReader(bad))
			if err == nil && Checksum(out) != info.NewCRC {
				t.Fatalf("damaged delta applied to %d bytes off its recorded CRC", len(out))
			}
			parseDeltaTree(bad)
			compare("damaged delta", next, base, nil, bad)
		}
		wrongBase := fuzzContainer(append(append([]byte(nil), a...), byte(mut)), int(baseShards%4))
		if compare("wrong base", next, wrongBase, nil, delta) && !bytes.Equal(wrongBase, base) {
			t.Fatal("a delta applied to a base it was not encoded against")
		}
		wrongTarget := append([]byte(nil), next...)
		wrongTarget[int(mut>>4)%len(wrongTarget)] ^= byte(mut>>24) | 1
		if compare("flipped target", wrongTarget, base, baseTree, delta) {
			t.Fatal("compare mode accepted a payload the delta does not rebuild")
		}
		compare("truncated target", next[:int(mut>>12)%len(next)], base, baseTree, delta)
	})
}

// appendContainer builds fuzzContainer's bytes with an AppendWriter, framing
// each nested shard the way how selects: 0 openNested/closeNested (the delta
// reassembly's running sum), 1 Nest over a shard appended in place (the
// checkpoint capture's sum from stored frame CRCs), 2 Frame over a separately
// built shard with its Checksum. It returns the bytes and the Writer's
// running CRC of them.
func appendContainer(src []byte, shards int, how uint8) ([]byte, uint32) {
	cut := func(b []byte, k, of int) []byte { return b[len(b)*k/of : len(b)*(k+1)/of] }
	w := AppendWriter(nil)
	if shards == 0 {
		leaf(w, "SESS", cut(src, 0, 3))
		w.Section("JOBS", func(e *Encoder) { e.Raw(cut(src, 1, 3)) })
		leaf(w, "POLI", cut(src, 2, 3))
	} else {
		w.Section("FLET", func(e *Encoder) { e.U32(uint32(shards)) })
		for k := 0; k < shards; k++ {
			part := cut(src, k, shards)
			switch how {
			case 0:
				start, _ := w.openNested("SHRD")
				leaf(w, "SESS", cut(part, 0, 2))
				leaf(w, "JOBS", cut(part, 1, 2))
				w.closeNested("SHRD", start)
			case 1:
				w.Nest("SHRD", func(dst []byte) ([]byte, error) {
					iw := AppendWriter(dst)
					leaf(iw, "SESS", cut(part, 0, 2))
					iw.Section("JOBS", func(e *Encoder) { e.Raw(cut(part, 1, 2)) })
					err := iw.Close()
					return iw.Bytes(), err
				})
			default:
				iw := AppendWriter(nil)
				leaf(iw, "SESS", cut(part, 0, 2))
				leaf(iw, "JOBS", cut(part, 1, 2))
				iw.Close()
				leaf(w, "SHRD", iw.Bytes())
			}
		}
	}
	w.Close()
	return w.Bytes(), w.sum
}

// FuzzFrameSums checks the CRCs that nested frames derive from their frames,
// instead of reading their bytes, against CRCs read the slow way, over
// Writer-built flat and nested containers: the Writer's running CRC and the
// tree walk's must each equal Checksum of the bytes, every way of building
// the container must give the same bytes, and flipping any single byte must
// fail both the tree walk and a Reader walk.
func FuzzFrameSums(f *testing.F) {
	f.Add([]byte("state before the checkpoint"), uint8(0), uint8(0), uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 300), uint8(2), uint8(1), uint8(0x80))
	f.Add([]byte("three shards of state, nested"), uint8(3), uint8(2), uint8(0xFF))
	f.Add(append([]byte("SCHSNAP\x00\x01\x00"), "a leaf that looks nested"...), uint8(1), uint8(0), uint8(4))

	f.Fuzz(func(t *testing.T, src []byte, shards, how, flip uint8) {
		if len(src) > 256 {
			src = src[:256] // every byte is flipped and re-walked: keep it small
		}
		data, sum := appendContainer(src, int(shards%4), how%3)
		want := Checksum(data)
		if sum != want {
			t.Fatalf("Writer running CRC %08x, bytes %08x", sum, want)
		}
		if ref := fuzzContainer(src, int(shards%4)); !bytes.Equal(data, ref) {
			t.Fatalf("append-mode build (%d bytes) differs from the stream-mode one (%d)", len(data), len(ref))
		}
		tree, err := parseDeltaTree(data)
		if err != nil {
			t.Fatalf("walk of clean bytes: %v", err)
		}
		if tree.sum != want {
			t.Fatalf("walk CRC %08x, bytes %08x", tree.sum, want)
		}
		if k := len(data) / 2; crcShift(Checksum(data[:k]), len(data)-k)^Checksum(data[k:]) != want {
			t.Fatalf("combine of the two halves at %d is not the whole's CRC", k)
		}

		bad := append([]byte(nil), data...)
		for i := range bad {
			bad[i] ^= flip | 1
			if _, err := parseDeltaTree(bad); err == nil {
				t.Fatalf("walk accepted a flip of byte %d of %d", i, len(bad))
			}
			if err := readAllSections(bad); err == nil {
				t.Fatalf("Reader accepted a flip of byte %d of %d", i, len(bad))
			}
			bad[i] = data[i]
		}
	})
}

// readAllSections walks every top-level section of data with a Reader.
func readAllSections(data []byte) error {
	r, err := NewReader(InPlace(data))
	if err != nil {
		return err
	}
	r.AllowDuplicates()
	for {
		if _, _, err := r.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}
