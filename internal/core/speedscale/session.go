package speedscale

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sched"
)

// Session is a streaming run of the §3 algorithm: jobs are fed one at a
// time in release order and scheduled online. The embedded engine session
// supplies Feed, FeedBatch, AdvanceTo, Fed, Pending, EachFed, SetTelemetry
// and Snapshot; only Close is typed here. A session with the same options
// produces a Result bit-identical to a batch Run over the same jobs (pinned
// by internal/policy's conformance suite). Because a stream has no instance
// to fall back on, Options.Alpha must be set explicitly.
type Session struct {
	*engine.Session
	p *spolicy
}

// NewSession starts a streaming run on the given number of machines,
// preallocating per-job storage when Options.SizeHint announces the
// expected stream size.
func NewSession(machines int, opt Options) (*Session, error) {
	return newSession(machines, opt, opt.SizeHint)
}

func newSession(machines int, opt Options, hint int) (*Session, error) {
	gamma, err := opt.validate()
	if err != nil {
		return nil, err
	}
	if hint < 0 {
		hint = 0
	}
	if machines <= 0 {
		return nil, fmt.Errorf("speedscale: session needs at least one machine, got %d", machines)
	}
	p := newPolicy(opt, opt.Alpha, gamma, machines, hint)
	es, err := engine.NewSession(p, engine.Options{Machines: machines, SizeHint: hint, EventQueue: opt.EventQueue})
	if err != nil {
		p.Close()
		return nil, err
	}
	return &Session{Session: es, p: p}, nil
}

// Close drains the run to completion and returns the audited result.
func (s *Session) Close() (*Result, error) {
	out, err := s.Session.Close()
	if err != nil {
		return nil, err
	}
	res := s.p.res
	res.Outcome = out
	res.Dual = s.p.dual
	return res, nil
}

// Run executes the algorithm on the instance: a thin wrapper over a Session
// fed from the instance's job slice, with Alpha resolved from the instance
// when Options.Alpha is zero.
func Run(ins *sched.Instance, opt Options) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	if opt.Alpha == 0 {
		opt.Alpha = ins.Alpha
	}
	s, err := newSession(ins.Machines, opt, len(ins.Jobs))
	if err != nil {
		return nil, err
	}
	if err := s.FeedBatch(ins.Jobs); err != nil {
		s.Close() // release the dispatch pool; the feed error wins
		return nil, err
	}
	return s.Close()
}
