package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a boundary the benchmark crosses. Parent is
// the id of the span that caused it (0 for a root); Ref ties the spans of
// one repetition together ("<workload>/<rep>"). Counts are recorded at the
// same boundary the time is, so ratios are measured where the work happens.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Name    string           `json:"name"`
	Ref     string           `json:"ref"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	ref   string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRef names the repetition subsequent spans belong to.
func (t *tracer) setRef(ref string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ref = ref
	t.mu.Unlock()
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Ref: t.ref, StartNS: now})
	return len(t.spans)
}

// end closes a span, attaching counts given as alternating key, value pairs.
func (t *tracer) end(id int, counts ...any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	for k := 0; k+1 < len(counts); k += 2 {
		if s.Counts == nil {
			s.Counts = make(map[string]int64, len(counts)/2)
		}
		s.Counts[counts[k].(string)] = counts[k+1].(int64)
	}
}

// do runs f inside a span and returns its wall time.
func (t *tracer) do(parent int, name string, f func()) time.Duration {
	id := t.begin(parent, name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(map[string]any{"spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
