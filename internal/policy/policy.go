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

// Entry is one registered policy. Its sessions are the bare engine sessions
// of the policy package's typed ones: the registry's callers need only the
// Outcome the engine's Close returns, and the typed result (duals, rule
// counters) stays with the package's own constructors.
type Entry struct {
	Name string
	// Mode is the audit sched.ValidateMode applies to this policy's
	// outcomes.
	Mode sched.ValidateMode
	// open starts a session on the given number of machines (r == nil) or
	// restores one from the snapshot r.
	open func(machines int, p Params, r io.Reader) (*engine.Session, error)
}

// New starts a streaming session on the given number of machines.
func (e Entry) New(machines int, p Params) (*engine.Session, error) {
	return e.open(machines, p, nil)
}

// Restore reconstructs a session from a snapshot taken under the same ε and
// α (the snapshot's option echo refuses anything else), sized for the larger
// of SizeHint and the snapshot's job count.
func (e Entry) Restore(r io.Reader, p Params) (*engine.Session, error) {
	return e.open(0, p, r)
}

// Run is the batch form of the policy: a session sized for the instance and
// fed all of it, exactly as the policy packages' typed Run functions do.
func (e Entry) Run(ins *sched.Instance, p Params) (*sched.Outcome, error) {
	return engine.RunBatch(ins, func(machines, hint int) (*engine.Session, error) {
		p.SizeHint = hint
		return e.New(machines, p)
	})
}

// open starts (r == nil) or restores a policy package's typed session under
// opt and hands out its engine session.
func open[O, R any](machines int, r io.Reader, opt O,
	newFn func(int, O) (*engine.Typed[R], error), restoreFn func(io.Reader, O) (*engine.Typed[R], error)) (*engine.Session, error) {
	var s *engine.Typed[R]
	var err error
	if r != nil {
		s, err = restoreFn(r, opt)
	} else {
		s, err = newFn(machines, opt)
	}
	if err != nil {
		return nil, err
	}
	return s.Session, nil
}

var table = []Entry{
	{"flowtime", sched.ValidateMode{RequireUnitSpeed: true}, func(m int, p Params, r io.Reader) (*engine.Session, error) {
		return open(m, r, flowtime.Options{Epsilon: p.Epsilon, SizeHint: p.SizeHint}, flowtime.NewSession, flowtime.Restore)
	}},
	{"wflow", sched.ValidateMode{RequireUnitSpeed: true}, func(m int, p Params, r io.Reader) (*engine.Session, error) {
		return open(m, r, wflow.Options{Epsilon: p.Epsilon, SizeHint: p.SizeHint}, wflow.NewSession, wflow.Restore)
	}},
	{"speedscale", sched.ValidateMode{}, func(m int, p Params, r io.Reader) (*engine.Session, error) {
		opt := speedscale.Options{Epsilon: p.Epsilon, Alpha: p.Alpha, SizeHint: p.SizeHint}
		return open(m, r, opt, speedscale.NewSession, speedscale.Restore)
	}},
	{"srpt", sched.ValidateMode{RequireUnitSpeed: true, AllowPreemption: true}, func(m int, p Params, r io.Reader) (*engine.Session, error) {
		return open(m, r, srpt.Options{SizeHint: p.SizeHint}, srpt.NewSession, srpt.Restore)
	}},
	{"wsrpt", sched.ValidateMode{RequireUnitSpeed: true, AllowMigration: true}, func(m int, p Params, r io.Reader) (*engine.Session, error) {
		return open(m, r, srpt.WeightedOptions{SizeHint: p.SizeHint}, srpt.NewWeightedSession, srpt.RestoreWeighted)
	}},
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
