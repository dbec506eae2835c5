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

// fuzzContainer builds a checkpoint-shaped container from src: flat (three
// leaves) when shards is 0, else a FLET header plus shards nested SHRD
// containers — the fleet's repeated tag — each holding two leaves. Leaf
// boundaries come from src itself, so the fuzzer moves them.
func fuzzContainer(src []byte, shards int) []byte {
	cut := func(b []byte, k, of int) []byte { return b[len(b)*k/of : len(b)*(k+1)/of] }
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if shards == 0 {
		w.Frame("SESS", cut(src, 0, 3))
		w.Frame("JOBS", cut(src, 1, 3))
		w.Frame("POLI", cut(src, 2, 3))
	} else {
		w.Section("FLET", func(e *Encoder) { e.U32(uint32(shards)) })
		for k := 0; k < shards; k++ {
			part := cut(src, k, shards)
			var inner bytes.Buffer
			iw := NewWriter(&inner)
			iw.Frame("SESS", cut(part, 0, 2))
			iw.Frame("JOBS", cut(part, 1, 2))
			iw.Close()
			w.Frame("SHRD", inner.Bytes())
		}
	}
	w.Close()
	return buf.Bytes()
}

// FuzzDelta drives the delta codec over fuzz-built base and target
// containers, flat and nested, with any chunk size: applying the encoded
// delta must give back the target exactly, and a bit-flipped or truncated
// delta must fail or reproduce a payload matching its recorded CRC — never
// panic.
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

		flipped := append([]byte(nil), delta...)
		flipped[int(mut>>8)%len(flipped)] ^= byte(mut) | 1
		for _, bad := range [][]byte{flipped, delta[:int(mut)%len(delta)]} {
			out, info, err := ApplyDelta(base, bytes.NewReader(bad))
			if err == nil && Checksum(out) != info.NewCRC {
				t.Fatalf("damaged delta applied to %d bytes off its recorded CRC", len(out))
			}
			VerifyContainer(bad)
		}
	})
}
