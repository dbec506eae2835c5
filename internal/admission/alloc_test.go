//go:build !race

package admission

import (
	"testing"

	"repro/internal/obs"
)

// TestDecideAllocatesNothing pins the sequencer's per-job cost: one
// Observe+Decide pair allocates nothing once a tenant's ledger exists, with
// telemetry attached (transition counters, the state gauge, and the O(1)
// budget/fed-weight gauge maintenance inside Decide).
func TestDecideAllocatesNothing(t *testing.T) {
	c := mustNew(t, Config{ThrottleDepth: 1 << 10, RejectDepth: 1 << 12, Epsilon: 0.2})
	c.SetTelemetry(NewTelemetry(obs.NewRegistry()))
	i := 0
	step := func() {
		c.Observe(i & 0xfff) // sweeps the depth through every state transition
		c.Decide(i&7, 1)
		i++
	}
	for i < 8 {
		step() // first sight of each tenant allocates its ledger
	}
	if a := testing.AllocsPerRun(1<<13, step); a != 0 {
		t.Fatalf("Observe+Decide: %v allocs/job, want 0", a)
	}
}
