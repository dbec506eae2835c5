package flowtime

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sched"
)

// Session is a streaming run of the §2 algorithm: jobs are fed one at a
// time in release order and scheduled online, with no knowledge of the
// future — exactly the model the paper analyzes. The embedded engine
// session supplies Feed, FeedBatch, AdvanceTo, Fed, Pending, EachFed,
// SetTelemetry and Snapshot; only Close is typed here. A session with the
// same options produces a Result bit-identical to a batch Run over the same
// jobs (pinned by internal/policy's conformance suite).
type Session struct {
	*engine.Session
	p *policy
}

// NewSession starts a streaming run on the given number of machines,
// preallocating per-job storage when Options.SizeHint announces the
// expected stream size.
func NewSession(machines int, opt Options) (*Session, error) {
	return newSession(machines, opt, opt.SizeHint)
}

func newSession(machines int, opt Options, hint int) (*Session, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if hint < 0 {
		hint = 0
	}
	if machines <= 0 {
		return nil, fmt.Errorf("flowtime: session needs at least one machine, got %d", machines)
	}
	p := newPolicy(opt, machines, hint)
	eh := 0
	if opt.TrackDual && hint > 0 {
		eh = 2*hint + machines + 1 // one C̃ exit event per job on top of arrivals
	}
	es, err := engine.NewSession(p, engine.Options{Machines: machines, SizeHint: hint, EventHint: eh, EventQueue: opt.EventQueue})
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
	if s.p.track {
		res.Dual = s.p.buildDualReport()
	}
	return res, nil
}

// Run executes the algorithm on the instance and returns the audited
// result. It is a thin wrapper over a Session fed the instance's job slice
// in one batch, with storage preallocated for the known size.
func Run(ins *sched.Instance, opt Options) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
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
