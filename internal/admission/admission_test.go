package admission

import "testing"

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStateMachine pins the watermark transitions and the hysteresis band:
// upward transitions fire at the watermarks, the way back to Accept passes
// through ResumeDepth, and in between the state holds.
func TestStateMachine(t *testing.T) {
	c := mustNew(t, Config{ThrottleDepth: 100, RejectDepth: 200, ResumeDepth: 50, Epsilon: 0.2})
	steps := []struct {
		depth int
		want  State
	}{
		{0, Accept},
		{99, Accept},
		{100, Throttle},
		{99, Throttle}, // hysteresis band: stays throttled
		{51, Throttle},
		{50, Accept}, // resume floor
		{200, Reject},
		{150, Reject}, // above throttle watermark: stays rejecting
		{120, Reject},
		{99, Throttle}, // below throttle watermark: steps down one level
		{60, Throttle},
		{49, Accept},
	}
	for i, s := range steps {
		if got := c.Observe(s.depth); got != s.want {
			t.Fatalf("step %d: Observe(%d) = %v, want %v", i, s.depth, got, s.want)
		}
	}
}

// TestStateMachineDefaults pins the defaulted resume floor (half the lowest
// watermark) and the disabled-watermark forms.
func TestStateMachineDefaults(t *testing.T) {
	c := mustNew(t, Config{ThrottleDepth: 100, RejectDepth: 400, Epsilon: 0.1})
	if got := c.cfg.ResumeDepth; got != 50 {
		t.Fatalf("defaulted ResumeDepth = %d, want 50", got)
	}
	// Throttling disabled: Accept until RejectDepth, no intermediate state.
	c = mustNew(t, Config{RejectDepth: 10, Epsilon: 0.1})
	if got := c.Observe(9); got != Accept {
		t.Fatalf("Observe(9) = %v, want accept", got)
	}
	if got := c.Observe(10); got != Reject {
		t.Fatalf("Observe(10) = %v, want reject", got)
	}
	if got := c.Observe(5); got != Accept {
		t.Fatalf("Observe(5) = %v, want accept (resume floor 5)", got)
	}
	// Both disabled: pure backpressure, never leaves Accept.
	c = mustNew(t, Config{Epsilon: 0.1})
	for _, d := range []int{0, 1000, 1 << 20} {
		if got := c.Observe(d); got != Accept {
			t.Fatalf("watermark-free Observe(%d) = %v, want accept", d, got)
		}
	}
}

// TestBudget pins the token-bucket semantics: admissions earn ε·weight,
// pre-rejections spend weight, an exhausted budget falls back to admission,
// and the ε envelope is never overdrawn.
func TestBudget(t *testing.T) {
	cfg := Config{RejectDepth: 1, Epsilon: 0.5}
	c := mustNew(t, cfg)

	// No budget yet: even in Reject state, the first job must be admitted.
	c.Observe(10)
	if c.state != Reject {
		t.Fatalf("state %v, want reject", c.state)
	}
	if d := c.Decide(7, 1); d != Admit {
		t.Fatalf("first job of a broke tenant: %v, want admit", d)
	}
	// One admitted unit-weight job earned 0.5: still not enough for w=1.
	if d := c.Decide(7, 1); d != Admit {
		t.Fatalf("budget 0.5 < weight 1: %v, want admit", d)
	}
	// Budget now 1.0: the next job is shed.
	if d := c.Decide(7, 1); d != PreReject {
		t.Fatalf("budget 1.0 ≥ weight 1: %v, want pre-reject", d)
	}
	ten := *c.tenants[7]
	if ten.Fed != 2 || ten.PreRejected != 1 || ten.FedWeight != 2 || ten.PreRejectedWeight != 1 {
		t.Fatalf("ledger %+v", ten)
	}
	if err := BudgetInvariant(cfg, ten, 1e-12); err != nil {
		t.Fatal(err)
	}

	// Hammer the tenant in Reject state: the invariant must hold at every
	// step, whatever mix of decisions falls out.
	for i := 0; i < 1000; i++ {
		w := 1 + float64(i%5)
		c.Decide(7, w)
		if err := BudgetInvariant(cfg, *c.tenants[7], 1e-9); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	// And shed something: with ε=0.5 the reject state must actually reject.
	if got := *c.tenants[7]; got.PreRejected < 100 {
		t.Fatalf("only %d of 1003 jobs shed under sustained overload with ε=0.5", got.PreRejected)
	}

	// Back in Accept, nothing is shed regardless of budget.
	c.Observe(0)
	for i := 0; i < 10; i++ {
		if d := c.Decide(7, 1); d != Admit {
			t.Fatalf("accept-state decision %v", d)
		}
	}
}

// TestBurst pins the initial allowance: a tenant arriving into an overloaded
// server can be shed immediately up to Burst weight, and no further.
func TestBurst(t *testing.T) {
	cfg := Config{RejectDepth: 1, Epsilon: 0, Burst: 2}
	c := mustNew(t, cfg)
	c.Observe(5)
	decisions := []Decision{PreReject, PreReject, Admit, Admit}
	for i, want := range decisions {
		if got := c.Decide(1, 1); got != want {
			t.Fatalf("job %d: %v, want %v", i, got, want)
		}
	}
	if err := BudgetInvariant(cfg, *c.tenants[1], 1e-12); err != nil {
		t.Fatal(err)
	}
}

// TestTenantsSortedAndRestore pins the deterministic ledger listing and the
// checkpoint round-trip.
func TestTenantsSortedAndRestore(t *testing.T) {
	c := mustNew(t, Config{Epsilon: 0.25})
	for _, id := range []int{42, 3, 17} {
		c.Decide(id, 2)
	}
	got := c.Tenants()
	if len(got) != 3 || got[0].ID != 3 || got[1].ID != 17 || got[2].ID != 42 {
		t.Fatalf("tenants %+v, want ids 3,17,42", got)
	}
	c2 := mustNew(t, Config{Epsilon: 0.25})
	for _, ten := range got {
		c2.RestoreTenant(ten)
	}
	for _, id := range []int{3, 17, 42} {
		if *c.tenants[id] != *c2.tenants[id] {
			t.Fatalf("tenant %d: restored %+v != original %+v", id, *c2.tenants[id], *c.tenants[id])
		}
	}
}

// TestConfigValidation pins the rejected configurations.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Epsilon: -0.1},
		{Epsilon: 1},
		{ThrottleDepth: 100, RejectDepth: 50, Epsilon: 0.1},
		{Epsilon: 0.1, Burst: -1},
		{Epsilon: 0.1, MaxQueuedWeight: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d (%+v) unexpectedly accepted", i, cfg)
		}
	}
}
