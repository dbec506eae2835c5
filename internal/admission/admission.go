// Package admission turns the engine's queue-depth signals (Shard.DepthTotal,
// Session.Pending) into an explicit overload policy for a network front
// door. It is the paper's rejection mechanism used as graceful degradation:
// in Lucarelli et al. rejection is a first-class verb — the scheduler pays a
// bounded penalty to refuse jobs it cannot serve well — and pre-rejecting at
// the ingestion boundary is exactly that verb applied before dispatch, with
// the same ε-scaled budget bounding how much service degrades.
//
// The controller is a deterministic state machine over two depth watermarks:
//
//	          depth ≥ RejectDepth ──────────────┐
//	Accept ──► Throttle ──► Reject              │ pre-reject (budget permitting)
//	   ▲          │            │                ▼
//	   └──────────┴────────────┴── depth ≤ ResumeDepth
//
// In each state:
//
//   - Accept: every job is fed to the scheduler.
//   - Throttle: jobs are still fed, but the front door slows its intake
//     (bounded per-connection queues plus a per-job delay), pushing
//     backpressure to the clients before the hard limit.
//   - Reject: jobs are pre-rejected — refused at the boundary with an
//     explicit per-job reject record that flows into the final metrics as an
//     ordinary rejection, so a degraded run still produces a valid, auditable
//     schedule — for as long as the tenant's rejection budget covers them.
//
// Budgets are per-tenant token buckets in weight units: every admitted job
// earns ε times its weight of rejection allowance, and a pre-rejection
// spends the rejected weight. The invariant, checked by the chaos harness,
// is the paper's budget shape: pre-rejected weight ≤ Burst + ε · admitted
// weight, per tenant, at every instant. A tenant whose budget is exhausted
// is never pre-rejected — its jobs fall back to backpressure, so overload
// can slow a tenant down but can never shed more of its weight than ε
// allows.
//
// The controller is single-goroutine (the front door's sequencer owns it);
// it allocates only when a new tenant first appears.
package admission

import (
	"fmt"
	"sort"
)

// State is the admission stance of the front door.
type State int32

const (
	// Accept feeds every job.
	Accept State = iota
	// Throttle feeds every job but slows intake (backpressure).
	Throttle
	// Reject pre-rejects jobs whose tenant budget covers them.
	Reject
)

func (s State) String() string {
	switch s {
	case Accept:
		return "accept"
	case Throttle:
		return "throttle"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Config parameterizes a Controller.
type Config struct {
	// ThrottleDepth is the queue-depth watermark that moves the controller
	// from Accept to Throttle. ≤ 0 disables throttling (the controller
	// jumps straight to Reject at RejectDepth).
	ThrottleDepth int
	// RejectDepth is the watermark that moves the controller to Reject.
	// ≤ 0 disables pre-rejection entirely (pure backpressure).
	RejectDepth int
	// ResumeDepth is the hysteresis floor: once throttling or rejecting,
	// the controller returns to Accept only when the depth falls to this
	// value or below, so the state cannot flap at a watermark boundary.
	// ≤ 0 selects half the lowest active watermark.
	ResumeDepth int
	// Epsilon is the per-tenant rejection budget rate: each admitted job
	// earns ε·weight of pre-rejection allowance. Must be in [0, 1); 0
	// means pre-rejection is never budgeted (every job falls back to
	// backpressure even in the Reject state).
	Epsilon float64
	// Burst is the initial budget (weight units) granted to a tenant
	// before it has fed anything, so a tenant arriving into an already
	// overloaded server can still be shed. Default 0.
	Burst float64
	// MaxQueuedWeight caps the job weight a single tenant may have queued
	// at the front door (its share of the ingestion buffers); 0 means
	// unlimited. The front door enforces it by blocking the tenant's
	// reads — tenant-local backpressure — before global depth is hurt.
	MaxQueuedWeight float64
}

func (c Config) validate() error {
	if c.Epsilon < 0 || c.Epsilon >= 1 {
		return fmt.Errorf("admission: epsilon must be in [0,1), got %v", c.Epsilon)
	}
	if c.ThrottleDepth > 0 && c.RejectDepth > 0 && c.RejectDepth < c.ThrottleDepth {
		return fmt.Errorf("admission: reject watermark %d below throttle watermark %d", c.RejectDepth, c.ThrottleDepth)
	}
	if c.Burst < 0 {
		return fmt.Errorf("admission: negative burst %v", c.Burst)
	}
	if c.MaxQueuedWeight < 0 {
		return fmt.Errorf("admission: negative per-tenant weight cap %v", c.MaxQueuedWeight)
	}
	return nil
}

// lowWatermark is the lowest enabled watermark, for the ResumeDepth default.
func (c Config) lowWatermark() int {
	switch {
	case c.ThrottleDepth > 0:
		return c.ThrottleDepth
	case c.RejectDepth > 0:
		return c.RejectDepth
	}
	return 0
}

// Decision is the verdict on one job.
type Decision int

const (
	// Admit feeds the job to the scheduler.
	Admit Decision = iota
	// PreReject refuses the job at the boundary; the caller records an
	// explicit reject record for it.
	PreReject
)

// Tenant is the admission ledger of one tenant: counters plus the rejection
// token bucket. All weights are in job-weight units.
type Tenant struct {
	ID                int
	Fed               int
	FedWeight         float64
	PreRejected       int
	PreRejectedWeight float64
	// Budget is the current pre-rejection allowance.
	Budget float64
}

// Controller is the admission state machine. Not safe for concurrent use:
// the front door's sequencer goroutine owns it.
type Controller struct {
	cfg     Config
	state   State
	tenants map[int]*Tenant
	// tel is the instrumentation bundle (zero value = disabled); it is
	// attached via SetTelemetry, never via Config, so it stays out of
	// checkpoints and can never alter a decision.
	tel Telemetry
}

// New validates the configuration and returns a Controller in Accept.
func New(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ResumeDepth <= 0 {
		cfg.ResumeDepth = cfg.lowWatermark() / 2
	}
	return &Controller{cfg: cfg, tenants: make(map[int]*Tenant)}, nil
}

// Config returns the validated configuration (with defaults resolved).
func (c *Controller) Config() Config { return c.cfg }

// State returns the current stance.
func (c *Controller) State() State { return c.state }

// Observe feeds the controller a fresh queue-depth sample and returns the
// (possibly updated) state. Transitions upward (toward Reject) are immediate;
// the way back to Accept passes through the ResumeDepth hysteresis floor, so
// one drained slab cannot flip the server open just to overload it again.
func (c *Controller) Observe(depth int) State {
	prev := c.state
	switch {
	case c.cfg.RejectDepth > 0 && depth >= c.cfg.RejectDepth:
		c.state = Reject
	case c.cfg.ThrottleDepth > 0 && depth >= c.cfg.ThrottleDepth:
		if c.state != Reject {
			c.state = Throttle
		}
	case depth <= c.cfg.ResumeDepth:
		c.state = Accept
	case c.state == Reject && (c.cfg.ThrottleDepth > 0 && depth < c.cfg.ThrottleDepth):
		// Below the throttle watermark but above the resume floor: step
		// down one level and let the hysteresis band hold there.
		c.state = Throttle
	}
	if c.state != prev {
		switch c.state {
		case Accept:
			c.tel.ToAccept.Inc()
		case Throttle:
			c.tel.ToThrottle.Inc()
		case Reject:
			c.tel.ToReject.Inc()
		}
		c.tel.State.Set(float64(c.state))
	}
	return c.state
}

// Decide rules on one job of the given tenant and weight, updating the
// tenant ledger. In Accept and Throttle every job is admitted and earns the
// tenant ε·weight of budget; in Reject the job is pre-rejected if (and only
// if) the tenant's budget covers its full weight — otherwise it is admitted
// (and still earns budget), so shedding degrades to backpressure rather than
// overdrawing the ε envelope.
func (c *Controller) Decide(tenant int, weight float64) Decision {
	t := c.tenant(tenant)
	if c.state == Reject && t.Budget >= weight {
		t.PreRejected++
		t.PreRejectedWeight += weight
		t.Budget -= weight
		c.tel.PreRejected.Inc()
		c.tel.TokensSpent.Add(weight)
		c.tel.Budget.Add(-weight)
		return PreReject
	}
	t.Fed++
	t.FedWeight += weight
	t.Budget += c.cfg.Epsilon * weight
	c.tel.Admitted.Inc()
	c.tel.FedWeight.Add(weight)
	c.tel.Budget.Add(c.cfg.Epsilon * weight)
	return Admit
}

// tenant returns (creating if needed) the ledger of one tenant.
func (c *Controller) tenant(id int) *Tenant {
	t := c.tenants[id]
	if t == nil {
		t = &Tenant{ID: id, Budget: c.cfg.Burst}
		c.tenants[id] = t
		c.tel.Budget.Add(c.cfg.Burst)
	}
	return t
}

// Tenant returns a copy of one tenant's ledger (zero-valued if unseen).
func (c *Controller) Tenant(id int) Tenant {
	if t := c.tenants[id]; t != nil {
		return *t
	}
	return Tenant{ID: id, Budget: c.cfg.Burst}
}

// Tenants returns copies of every tenant ledger, sorted by id — the
// deterministic order the front door's report and checkpoint rely on.
func (c *Controller) Tenants() []Tenant {
	out := make([]Tenant, 0, len(c.tenants))
	for _, t := range c.tenants {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RestoreTenant reinstalls a tenant ledger from a checkpoint. It overwrites
// any existing ledger for the id.
func (c *Controller) RestoreTenant(t Tenant) {
	cp := t
	c.tenants[t.ID] = &cp
	c.syncGauges()
}

// BudgetInvariant checks the paper-shaped budget bound for one tenant:
// pre-rejected weight ≤ Burst + ε·fed weight (within tol). The chaos
// harness asserts it over every tenant of a degraded run.
func BudgetInvariant(cfg Config, t Tenant, tol float64) error {
	if limit := cfg.Burst + cfg.Epsilon*t.FedWeight; t.PreRejectedWeight > limit+tol {
		return fmt.Errorf("admission: tenant %d pre-rejected weight %v exceeds budget %v (burst %v + ε %v · fed weight %v)",
			t.ID, t.PreRejectedWeight, limit, cfg.Burst, cfg.Epsilon, t.FedWeight)
	}
	return nil
}
