package snapshot

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// writeSample builds a two-section stream exercising every primitive.
func writeSample(t *testing.T) []byte {
	t.Helper()
	w := AppendWriter(nil)
	err := w.Section("ONE\x00", func(e *Encoder) {
		e.U8(7)
		e.Bool(true)
		e.Bool(false)
		e.U32(0xdeadbeef)
		e.U64(1 << 60)
		e.I64(-42)
		e.Int(-1)
		e.F64(math.Pi)
		e.F64(math.Inf(-1))
		e.F64(math.Copysign(0, -1))
		e.Str("héllo")
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Section("TWO\x00", func(e *Encoder) {
		e.U64(3)
		for i := 0; i < 3; i++ {
			e.F64(float64(i) / 3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func TestRoundTrip(t *testing.T) {
	b := writeSample(t)
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("ONE\x00")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.U8(); got != 7 {
		t.Fatalf("u8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools corrupted")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Fatalf("u32 = %x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Fatalf("u64 = %x", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("i64 = %d", got)
	}
	if got := d.Int(); got != -1 {
		t.Fatalf("int = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("f64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Fatalf("-inf = %v", got)
	}
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0 bits lost: %v", got)
	}
	if got := d.Str(); got != "héllo" {
		t.Fatalf("str = %q", got)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	d, err = r.Section("TWO\x00")
	if err != nil {
		t.Fatal(err)
	}
	n := d.Count(8)
	if n != 3 {
		t.Fatalf("count = %d", n)
	}
	for i := 0; i < n; i++ {
		if got := d.F64(); got != float64(i)/3 {
			t.Fatalf("f64[%d] = %v", i, got)
		}
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

func TestSectionOrderEnforced(t *testing.T) {
	b := writeSample(t)
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("TWO\x00"); err == nil || !strings.Contains(err.Error(), `want section "TWO\x00"`) {
		t.Fatalf("out-of-order section accepted: %v", err)
	}
}

func TestTruncationFailsEverywhere(t *testing.T) {
	b := writeSample(t)
	for n := 0; n < len(b); n++ {
		r, err := NewReader(bytes.NewReader(b[:n]))
		if err != nil {
			continue // header truncation already rejected
		}
		failed := false
		for {
			_, d, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				failed = true
				break
			}
			_ = d
		}
		// A clean End must be impossible on a truncated stream: either a
		// section read failed above, or End itself must.
		if !failed {
			if err := r.End(); err == nil {
				t.Fatalf("truncation at %d of %d bytes went undetected", n, len(b))
			}
		}
	}
}

func TestCorruptionFailsEverywhere(t *testing.T) {
	b := writeSample(t)
	for n := 10; n < len(b); n++ { // past the header: flip one bit per position
		mut := append([]byte(nil), b...)
		mut[n] ^= 0x10
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		detected := false
		for {
			tag, d, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				detected = true
				break
			}
			_ = tag
			_ = d
		}
		if !detected {
			t.Fatalf("bit flip at byte %d went undetected", n)
		}
	}
}

func TestTrailingDataRejected(t *testing.T) {
	b := append(writeSample(t), 0xff)
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, err := r.Next()
		if err == io.EOF {
			t.Fatal("trailing byte after end section accepted")
		}
		if err != nil {
			if !strings.Contains(err.Error(), "trailing data") {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
	}
}

func TestDecoderStickyAndPositioned(t *testing.T) {
	w := AppendWriter(nil)
	if err := w.Section("SECT", func(e *Encoder) { e.U32(5) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("SECT")
	if err != nil {
		t.Fatal(err)
	}
	d.U32()
	d.U64() // past the end: must fail with position
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), `section "SECT": byte 4`) {
		t.Fatalf("want positioned error, got %v", err)
	}
	if v := d.F64(); v != 0 {
		t.Fatalf("read after sticky error returned %v", v)
	}
}

func TestDoneCatchesTrailingBytes(t *testing.T) {
	w := AppendWriter(nil)
	if err := w.Section("SECT", func(e *Encoder) { e.U64(1); e.U64(2) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("SECT")
	if err != nil {
		t.Fatal(err)
	}
	d.U64()
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

func TestCountGuardsAllocation(t *testing.T) {
	w := AppendWriter(nil)
	if err := w.Section("SECT", func(e *Encoder) { e.U64(1 << 50) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("SECT")
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Count(8); n != 0 {
		t.Fatalf("hostile count %d accepted", n)
	}
	if d.Err() == nil {
		t.Fatal("hostile count produced no error")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a snapshot stream")); err == nil {
		t.Fatal("bad magic accepted")
	}
	b := writeSample(t)
	mut := append([]byte(nil), b...)
	mut[8] = 99 // version
	if _, err := NewReader(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version accepted: %v", err)
	}
}
