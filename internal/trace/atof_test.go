package trace

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// scanFloatVsParseFloat holds scanFloat to its contract on b: it declines
// exactly when there is no JSON number literal at b[0] or ParseFloat refuses
// the literal, and otherwise agrees with ParseFloat on the value's bits and
// with the grammar on where the literal ends.
func scanFloatVsParseFloat(t *testing.T, b []byte) {
	t.Helper()
	got, end, ok := scanFloat(b, 0)
	litEnd, _ := scanNumber(b, 0)
	if litEnd == 0 {
		if ok {
			t.Fatalf("%q: scanned %v from no literal", b, got)
		}
		return
	}
	want, err := strconv.ParseFloat(string(b[:litEnd]), 64)
	if ok != (err == nil) {
		t.Fatalf("%q: scanner ok = %v, ParseFloat err = %v", b, ok, err)
	}
	if !ok {
		return
	}
	if end != litEnd || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: scanned %v (%#x) ending at %d, ParseFloat %v (%#x) ending at %d",
			b, got, math.Float64bits(got), end, want, math.Float64bits(want), litEnd)
	}
}

// floatEdges are literals on every boundary the scanner's three paths meet:
// signed zeros, subnormals and the normal/subnormal seam, the largest finite
// value and the first overflow, Clinger's exact range, the classic
// Eisel–Lemire halfway case 1e23, 2^53+1, the 19-digit mantissa limit, and
// the first and last exponents of the power table and one past each.
// Plain go test runs them as FuzzScanFloat's seed corpus.
var floatEdges = []string{
	"0", "-0", "0.0", "-0.0", "0e5", "0E-400", "-0e99999999999",
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"2.2250738585072011e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e309",
	"1e22", "1e23", "1e37", "123456789012345e22", "9e-22", "1e-23",
	"9007199254740992", "9007199254740993", "9007199254740993.0000000001",
	"1234567890123456789", "12345678901234567890", "1234567890123456789.5",
	"0.1234567890123456789", "0.12345678901234567891", "18446744073709551615", "18446744073709551616",
	"99999999999999999999e-20", "0.000000000000000000000000000001234",
	"1e-64", "1e-65", "1e64", "1e65",
	"12345678901234567e-80", "12345678901234567e-81", "12345678901234567e64", "12345678901234567e65",
	"1.5,", "2]", "3}", "-", "-x", "01", "1.", ".5", "1e", "1e+", "+1", "1.5e+3 ", "7E-2x",
}

func FuzzScanFloat(f *testing.F) {
	for _, s := range floatEdges {
		f.Add([]byte(s))
	}
	f.Fuzz(scanFloatVsParseFloat)
}

// TestScanFloatRandomDoubles formats 3M random doubles in their shortest
// 'f', 'e' and 'g' forms and scans each back: every bit must be
// ParseFloat's. A quarter are uniform over all finite bit patterns (mostly
// the ParseFloat fallback); the rest are job-like magnitudes within the
// power table, where the fast paths decide.
func TestScanFloatRandomDoubles(t *testing.T) {
	n := 3_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewPCG(28, 1802))
	var buf []byte
	for k := 0; k < n; k++ {
		var v float64
		if k%4 == 0 {
			v = math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
		} else {
			v = (rng.Float64() + 0x1p-60) * math.Pow(10, float64(rng.IntN(81)-40))
			if k%3 == 0 {
				v = -v
			}
		}
		for _, fmtc := range []byte{'f', 'e', 'g'} {
			buf = strconv.AppendFloat(buf[:0], v, fmtc, -1, 64)
			got, end, ok := scanFloat(buf, 0)
			if !ok || end != len(buf) || math.Float64bits(got) != math.Float64bits(v) {
				scanFloatVsParseFloat(t, buf) // reports the disagreement
				t.Fatalf("%q: scanned %v ok=%v end=%d, want %v", buf, got, ok, end, v)
			}
		}
	}
}

// TestPow10RowsMatchStrconv pins generated rows against the constants
// quoted in Go's strconv/eisel_lemire.go.
func TestPow10RowsMatchStrconv(t *testing.T) {
	for _, c := range []struct {
		exp10 int
		row   [2]uint64
	}{
		{-16, [2]uint64{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}},
		{-6, [2]uint64{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}},
		{0, [2]uint64{0, 1 << 63}},
	} {
		if got := pow10Rows[c.exp10-powMinExp10]; got != c.row {
			t.Errorf("1e%d row = {%#x, %#x}, want {%#x, %#x}", c.exp10, got[0], got[1], c.row[0], c.row[1])
		}
	}
}

// TestScanJobAllocs: decoding a canonical 8-machine line allocates nothing
// once the reader holds a slab.
func TestScanJobAllocs(t *testing.T) {
	raw := canonicalTrace(t, 1, 8)
	line := raw[bytes.IndexByte(raw, '\n')+1:]
	line = line[:bytes.IndexByte(line, '\n')]
	r := &NDJSONReader{machines: 8}
	if _, ok := r.scanJob(line); !ok {
		t.Fatalf("scanner declined the canonical line %q", line)
	}
	if n := testing.AllocsPerRun(100, func() { r.scanJob(line) }); n != 0 {
		t.Fatalf("scanJob: %v allocs per canonical line, want 0", n)
	}
}
