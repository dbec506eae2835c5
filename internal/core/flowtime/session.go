package flowtime

import (
	"repro/internal/engine"
	"repro/internal/sched"
)

// Session is a streaming run of the §2 algorithm: jobs are fed one at a
// time in release order and scheduled online, with no knowledge of the
// future — exactly the model the paper analyzes. It is the engine's hosted
// session with Close returning this package's Result; a session with the
// same options produces a Result bit-identical to a batch Run over the same
// jobs (pinned by internal/policy's conformance suite).
type Session = engine.Typed[*Result]

// NewSession starts a streaming run on the given number of machines,
// preallocating per-job storage when Options.SizeHint announces the
// expected stream size.
func NewSession(machines int, opt Options) (*Session, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return engine.NewTyped(engine.Options{Machines: machines, SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}

// Run executes the algorithm on the instance and returns the audited
// result: a Session sized for the instance and fed all of it in one batch.
func Run(ins *sched.Instance, opt Options) (*Result, error) {
	return engine.RunBatch(ins, func(machines, hint int) (*Session, error) {
		opt.SizeHint = hint
		return NewSession(machines, opt)
	})
}

// result completes the policy's Result with the drained outcome and, when
// tracked, the dual report.
func (p *policy) result(out *sched.Outcome) *Result {
	p.res.Outcome = out
	if p.track {
		p.res.Dual = p.buildDualReport()
	}
	return p.res
}
