// Package stats provides the summary statistics and plain-text table/series
// rendering used by the experiment harness. Everything is deterministic and
// allocation-light; output renders in a terminal and pastes cleanly into
// EXPERIMENTS.md.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of a sorted sample using the
// nearest-rank method.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Table is a simple column-aligned table with a title, rendered by String.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond the column count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf formats each cell with %v (floats via Fmt).
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, Fmt(v))
		default:
			row = append(row, fmt.Sprintf("%v", c))
		}
	}
	t.AddRow(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (naive quoting: cells with
// commas are wrapped in double quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Fmt renders a float compactly: integers without decimals, small values
// with 4 significant digits, large with 1 decimal.
func Fmt(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Series is a labelled (x, y...) series for "figure" experiments, rendered
// as an aligned text block plus an ASCII sparkline per y-column.
type Series struct {
	Title  string
	XLabel string
	YLabel []string
	X      []float64
	Y      [][]float64 // Y[k][i] = value of curve k at X[i]
}

// NewSeries creates a series with one or more named curves.
func NewSeries(title, xlabel string, ylabels ...string) *Series {
	s := &Series{Title: title, XLabel: xlabel, YLabel: ylabels}
	s.Y = make([][]float64, len(ylabels))
	return s
}

// Add appends one x point with one y value per curve.
func (s *Series) Add(x float64, ys ...float64) {
	s.X = append(s.X, x)
	for k := range s.Y {
		v := math.NaN()
		if k < len(ys) {
			v = ys[k]
		}
		s.Y[k] = append(s.Y[k], v)
	}
}

// String renders the series as a table followed by sparklines.
func (s *Series) String() string {
	t := NewTable(s.Title, append([]string{s.XLabel}, s.YLabel...)...)
	for i := range s.X {
		cells := []string{Fmt(s.X[i])}
		for k := range s.Y {
			cells = append(cells, Fmt(s.Y[k][i]))
		}
		t.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	for k, label := range s.YLabel {
		fmt.Fprintf(&b, "%s: %s\n", label, Sparkline(s.Y[k]))
	}
	return b.String()
}

// CSV renders the series as comma-separated values (one row per x).
func (s *Series) CSV() string {
	t := NewTable("", append([]string{s.XLabel}, s.YLabel...)...)
	for i := range s.X {
		cells := []string{Fmt(s.X[i])}
		for k := range s.Y {
			cells = append(cells, Fmt(s.Y[k][i]))
		}
		t.AddRow(cells...)
	}
	return t.CSV()
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a unicode sparkline (log-free, linear scale).
func Sparkline(ys []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		if math.IsNaN(y) {
			continue
		}
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	if math.IsInf(lo, 1) {
		return ""
	}
	var b strings.Builder
	for _, y := range ys {
		if math.IsNaN(y) {
			b.WriteByte(' ')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int((y - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}
