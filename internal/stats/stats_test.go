package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		sort.Float64s(xs)
		p50, p90, p99 := Percentile(xs, 0.5), Percentile(xs, 0.9), Percentile(xs, 0.99)
		return xs[0] <= p50 && p50 <= p90 && p90 <= p99 && p99 <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRowf("alpha", 1.5)
	tb.AddRowf("a-very-long-name", 2)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// All data lines align: the value column starts at the same offset.
	h := strings.Index(lines[1], "value")
	for _, ln := range lines[3:] {
		if len(ln) < h {
			t.Fatalf("misaligned row %q", ln)
		}
	}
	if !strings.Contains(out, "1.500") {
		t.Fatalf("float not formatted: %s", out)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("x") // missing cells render empty, no panic
	if !strings.Contains(tb.String(), "x") {
		t.Fatal("row lost")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("plain", `with,comma "quoted"`)
	csv := tb.CSV()
	want := "a,b\nplain,\"with,comma \"\"quoted\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestFmt(t *testing.T) {
	cases := map[float64]string{
		3:           "3",
		3.14159:     "3.142",
		12345.678:   "12345.7",
		0.000123:    "0.000123",
		math.Inf(1): "inf",
	}
	for v, want := range cases {
		if got := Fmt(v); got != want {
			t.Errorf("Fmt(%v) = %q, want %q", v, got, want)
		}
	}
	if got := Fmt(math.NaN()); got != "nan" {
		t.Errorf("Fmt(NaN) = %q", got)
	}
}

func TestSeriesRendering(t *testing.T) {
	s := NewSeries("curve", "x", "y1", "y2")
	s.Add(1, 10, 0.1)
	s.Add(2, 20, 0.2)
	s.Add(3, 15) // y2 missing -> NaN cell
	out := s.String()
	if !strings.Contains(out, "curve") || !strings.Contains(out, "y2") {
		t.Fatalf("series output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "nan") {
		t.Fatalf("missing NaN cell:\n%s", out)
	}
	if !strings.Contains(out, "y1: ") {
		t.Fatalf("missing sparkline:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 1}); got != "▁█" {
		t.Fatalf("Sparkline = %q", got)
	}
	if got := Sparkline([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Fatalf("constant Sparkline = %q", got)
	}
	if got := Sparkline(nil); got != "" {
		t.Fatalf("empty Sparkline = %q", got)
	}
	if got := Sparkline([]float64{math.NaN(), 1}); !strings.HasPrefix(got, " ") {
		t.Fatalf("NaN Sparkline = %q", got)
	}
}
