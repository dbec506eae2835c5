// Package policy is the one table from policy name to engine-hosted
// scheduler: how to start a streaming session, how to restore one from a
// snapshot, and which audit mode its outcomes validate under. The network
// front door, schedsim and the cross-policy goldens are all lookups in it,
// so hosting a new scheduler on the engine is one row here (plus one row in
// the conformance suite next door) instead of a switch in every consumer.
package policy

import (
	"io"
	"strings"

	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/engine"
	"repro/internal/sched"
)

// Params is the union of the options the registered policies take. A policy
// ignores the fields it has no use for (ε for the SRPT comparators, α for
// everything but speedscale). Sessions built here scan the dispatch argmin
// serially and run on the heap event queue.
type Params struct {
	Epsilon  float64 // rejection parameter ε
	Alpha    float64 // power exponent α (speedscale)
	SizeHint int     // expected stream length, preallocated; never changes an outcome
}

// stream is what every policy session promotes from its embedded
// *engine.Session.
type stream interface {
	engine.Feeder
	AdvanceTo(t float64) error
	Fed() int
	Pending() int
	EachFed(f func(j *sched.Job))
	SetTelemetry(t engine.Telemetry)
	Snapshot(w io.Writer) error
	AppendSnapshot(dst []byte) ([]byte, error)
}

// Session is a live streaming run of a registered policy, with the
// policy-specific result erased to the shared Outcome.
type Session interface {
	stream
	Close() (*sched.Outcome, error)
}

// Entry is one registered policy.
type Entry struct {
	Name string
	// Mode is the audit sched.ValidateOutcome applies to this policy's
	// outcomes.
	Mode sched.ValidateMode
	// New starts a streaming session on the given number of machines.
	New func(machines int, p Params) (Session, error)
	// Restore reconstructs a session from a snapshot taken under the same
	// ε and α (the snapshot's option echo refuses anything else); the
	// snapshot, not SizeHint, sizes the session.
	Restore func(r io.Reader, p Params) (Session, error)
}

// Run is the batch form of the policy: a session sized for the instance and
// fed all of it, which is exactly what the policy packages' typed Run
// functions do.
func (e Entry) Run(ins *sched.Instance, p Params) (*sched.Outcome, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	p.SizeHint = len(ins.Jobs)
	s, err := e.New(ins.Machines, p)
	if err != nil {
		return nil, err
	}
	if err := s.FeedBatch(ins.Jobs); err != nil {
		s.Close() // release the dispatch pool; the feed error wins
		return nil, err
	}
	return s.Close()
}

// typed is a policy package's own session: the promoted stream plus a Close
// returning that package's result type.
type typed[R any] interface {
	stream
	Close() (R, error)
}

// erased adapts a typed session to Session.
type erased[R any] struct {
	typed[R]
	outcome func(R) *sched.Outcome
}

func (s erased[R]) Close() (*sched.Outcome, error) {
	res, err := s.typed.Close()
	if err != nil {
		return nil, err
	}
	return s.outcome(res), nil
}

// row builds an Entry from a policy package's constructor pair, its mapping
// from Params to its own options, and the Outcome field of its result.
func row[O any, S typed[R], R any](name string, mode sched.ValidateMode,
	newFn func(int, O) (S, error), restoreFn func(io.Reader, O) (S, error),
	opts func(Params) O, outcome func(R) *sched.Outcome) Entry {
	erase := func(s S, err error) (Session, error) {
		if err != nil {
			return nil, err
		}
		return erased[R]{s, outcome}, nil
	}
	return Entry{
		Name:    name,
		Mode:    mode,
		New:     func(m int, p Params) (Session, error) { return erase(newFn(m, opts(p))) },
		Restore: func(r io.Reader, p Params) (Session, error) { return erase(restoreFn(r, opts(p))) },
	}
}

var table = []Entry{
	row("flowtime", sched.ValidateMode{RequireUnitSpeed: true},
		flowtime.NewSession, flowtime.Restore,
		func(p Params) flowtime.Options {
			return flowtime.Options{Epsilon: p.Epsilon, SizeHint: p.SizeHint}
		},
		func(r *flowtime.Result) *sched.Outcome { return r.Outcome }),
	row("wflow", sched.ValidateMode{RequireUnitSpeed: true},
		wflow.NewSession, wflow.Restore,
		func(p Params) wflow.Options {
			return wflow.Options{Epsilon: p.Epsilon, SizeHint: p.SizeHint}
		},
		func(r *wflow.Result) *sched.Outcome { return r.Outcome }),
	row("speedscale", sched.ValidateMode{},
		speedscale.NewSession, speedscale.Restore,
		func(p Params) speedscale.Options {
			return speedscale.Options{Epsilon: p.Epsilon, Alpha: p.Alpha, SizeHint: p.SizeHint}
		},
		func(r *speedscale.Result) *sched.Outcome { return r.Outcome }),
	row("srpt", sched.ValidateMode{RequireUnitSpeed: true, AllowPreemption: true},
		srpt.NewSession, srpt.Restore,
		func(p Params) srpt.Options {
			return srpt.Options{SizeHint: p.SizeHint}
		},
		func(r *srpt.Result) *sched.Outcome { return r.Outcome }),
	row("wsrpt", sched.ValidateMode{RequireUnitSpeed: true, AllowMigration: true},
		srpt.NewWeightedSession, srpt.RestoreWeighted,
		func(p Params) srpt.WeightedOptions {
			return srpt.WeightedOptions{SizeHint: p.SizeHint}
		},
		func(r *srpt.WeightedResult) *sched.Outcome { return r.Outcome }),
}

// Lookup returns the entry registered under name.
func Lookup(name string) (Entry, bool) {
	for _, e := range table {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists the registered policies in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// Usage is the "a|b|c" form of Names, for flag help and error messages.
func Usage() string { return strings.Join(Names(), "|") }
