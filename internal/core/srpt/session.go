package srpt

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sched"
)

// Session is a streaming per-machine preemptive SRPT run: jobs are fed one
// at a time in release order and scheduled online. The embedded engine
// session supplies Feed, FeedBatch, AdvanceTo, Fed, Pending, EachFed,
// SetTelemetry and Snapshot; only Close is typed here. A session with the
// same options produces a Result bit-identical to a batch Run over the same
// jobs (pinned by internal/policy's conformance suite), so it plugs into
// schedsim -stream and engine.Shard exactly like the λ-dispatch policies.
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
	if machines <= 0 {
		return nil, fmt.Errorf("srpt: session needs at least one machine, got %d", machines)
	}
	if hint < 0 {
		hint = 0
	}
	p := newPolicy(opt, machines)
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
	return res, nil
}

// Run executes per-machine preemptive SRPT on the instance. It is a thin
// wrapper over a Session fed the instance's job slice in one batch, with
// storage preallocated for the known size.
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

// WeightedSession is the streaming front-end of the migratory weighted-SRPT
// comparator, embedding the engine session exactly like Session.
type WeightedSession struct {
	*engine.Session
	p *wpolicy
}

// NewWeightedSession starts a streaming migratory weighted-SRPT run,
// preallocating per-job storage when WeightedOptions.SizeHint announces the
// expected stream size.
func NewWeightedSession(machines int, opt WeightedOptions) (*WeightedSession, error) {
	return newWeightedSession(machines, opt, opt.SizeHint)
}

func newWeightedSession(machines int, opt WeightedOptions, hint int) (*WeightedSession, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("srpt: session needs at least one machine, got %d", machines)
	}
	if hint < 0 {
		hint = 0
	}
	p := newWPolicy()
	if hint > 0 {
		p.frac = make([]float64, 0, hint)
		p.pmin = make([]float64, 0, hint)
		p.lastMach = make([]int32, 0, hint)
	}
	es, err := engine.NewSession(p, engine.Options{Machines: machines, SizeHint: hint, EventQueue: opt.EventQueue})
	if err != nil {
		return nil, err
	}
	return &WeightedSession{Session: es, p: p}, nil
}

// Close drains the run to completion and returns the audited result.
func (s *WeightedSession) Close() (*WeightedResult, error) {
	out, err := s.Session.Close()
	if err != nil {
		return nil, err
	}
	res := s.p.res
	res.Outcome = out
	return res, nil
}

// RunWeighted executes the migratory weighted-SRPT comparator on the
// instance via a hinted streaming session, like Run.
func RunWeighted(ins *sched.Instance, opt WeightedOptions) (*WeightedResult, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	s, err := newWeightedSession(ins.Machines, opt, len(ins.Jobs))
	if err != nil {
		return nil, err
	}
	if err := s.FeedBatch(ins.Jobs); err != nil {
		s.Close()
		return nil, err
	}
	return s.Close()
}
