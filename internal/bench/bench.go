// Package bench defines the experiment suite of this reproduction. The paper
// (SPAA 2018) is a theory paper with no empirical section, so the suite is
// derived from its theorem/lemma claims: every experiment measures a proven
// envelope (competitive ratio, rejection budget, lower-bound growth) on
// synthetic workloads against honest optimum lower bounds.
//
// Each experiment regenerates one "table" or "figure" documented in
// EXPERIMENTS.md; `go run ./cmd/schedbench -exp <id>` runs one. Performance
// is not measured here: `go run ./benchmark` is the one instrument for that.
package bench

import (
	"fmt"
	"sort"
)

// Config scales the experiments. Quick mode shrinks instance sizes so the
// whole suite runs in a couple of seconds (used by tests); the default sizes
// are what EXPERIMENTS.md reports.
type Config struct {
	Quick bool
}

// scale returns full when not quick, otherwise quick.
func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the experiment identifier (E1..E9, E11..E13, E15, E17; ids of
	// retired experiments are not reused).
	ID string
	// Kind is "table" or "figure".
	Kind string
	// Title is a one-line description.
	Title string
	// Claim names the paper result the experiment exercises.
	Claim string
	// Run produces the rendered artifact.
	Run func(Config) (fmt.Stringer, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment ordered by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		ea, eb := out[a].ID, out[b].ID
		if len(ea) != len(eb) {
			return len(ea) < len(eb) // E2 < E11
		}
		return ea < eb
	})
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}
