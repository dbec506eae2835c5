// Package obs is a dependency-free telemetry core for the serving stack:
// atomic counters and gauges, a fixed-bucket log-scale histogram with
// lock-free allocation-free recording, and a registry that renders the
// Prometheus text exposition (and, on the scrape side, parses it back).
//
// Every metric method is nil-receiver safe: a nil *Counter, *Gauge or
// *Histogram is the disabled mode and costs one predictable branch per
// call. A nil *Registry hands out nil metrics, so call sites never need
// their own "is telemetry on" checks — they hold a metric pointer and
// call it unconditionally.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; a nil pointer is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Store resets the counter to n. Used when rebuilding state from a
// checkpoint, where the live total restarts from the restored ledger.
func (c *Counter) Store(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 metric stored as atomic bits. The
// zero value is ready to use; a nil pointer is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge with a CAS loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type entry struct {
	name string // full series name, possibly with {labels}
	kind metricKind
	c    *Counter
	g    *Gauge
	fn   func() float64
	h    *Histogram
}

// Registry holds named metrics and renders them. A nil *Registry is the
// disabled mode: every constructor returns nil and every render is a
// no-op, so a single `if cfg.Obs != nil` at setup is the only check a
// component ever writes.
//
// Constructor methods are get-or-create: asking for the same name twice
// returns the same metric, which is how shards share fleet-wide
// counters. Register* methods attach an externally owned metric (for
// components whose counters must count even when telemetry is off).
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) lookup(name string, kind metricKind) *entry {
	e, ok := r.entries[name]
	if !ok {
		e = &entry{name: name, kind: kind}
		r.entries[name] = e
	}
	return e
}

// Counter returns the counter registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, kindCounter)
	if e.c == nil {
		e.c = new(Counter)
	}
	return e.c
}

// Gauge returns the gauge registered under name, creating it if needed.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, kindGauge)
	if e.g == nil {
		e.g = new(Gauge)
	}
	return e.g
}

// Histogram returns the histogram registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, kindHistogram)
	if e.h == nil {
		e.h = new(Histogram)
	}
	return e.h
}

// GaugeFunc registers a callback sampled at render time. The callback
// runs while the registry lock is held, so it must read only atomics —
// never take a lock that could itself be held around a render.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, kindGaugeFunc)
	e.fn = fn
}

// RegisterCounter attaches an externally owned counter under name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, kindCounter)
	e.c = c
}

// splitName separates "base{k=\"v\"}" into base and the inner label
// string (without braces). Names without labels return labels == "".
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	base = name[:i]
	labels = strings.TrimSuffix(name[i+1:], "}")
	return base, labels
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedEntries returns the registry contents ordered by (base, labels)
// so exposition output is deterministic.
func (r *Registry) sortedEntries() []*entry {
	es := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		bi, li := splitName(es[i].name)
		bj, lj := splitName(es[j].name)
		if bi != bj {
			return bi < bj
		}
		return li < lj
	})
	return es
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, series sorted by (base name, labels), one TYPE comment per
// base. Histograms emit cumulative *_bucket lines (empty buckets are
// elided; le="+Inf" is always present), *_sum, and *_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	prevBase := ""
	for _, e := range r.sortedEntries() {
		base, labels := splitName(e.name)
		if base != prevBase {
			typ := "gauge"
			switch e.kind {
			case kindCounter:
				typ = "counter"
			case kindHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, typ)
			prevBase = base
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", e.name, e.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", e.name, formatFloat(e.g.Value()))
		case kindGaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", e.name, formatFloat(e.fn()))
		case kindHistogram:
			writeHistogram(&b, base, labels, e.h.Snapshot())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, base, labels string, s HistSnapshot) {
	cum := uint64(0)
	for k := 0; k < NumBuckets; k++ {
		if s.Counts[k] == 0 && k != NumBuckets-1 {
			cum += s.Counts[k]
			continue
		}
		cum += s.Counts[k]
		le := formatFloat(BucketUpper(k))
		if labels != "" {
			fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", base, labels, le, cum)
		} else {
			fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", base, le, cum)
		}
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", base, suffix, formatFloat(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", base, suffix, s.Count)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label builds a labeled series name: Label("x", "tenant", "3") is
// `x{tenant="3"}`. Label values are escaped per the Prometheus text
// format. Pairs must come in key, value order; a trailing odd element
// is ignored.
func Label(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
