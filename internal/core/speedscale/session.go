package speedscale

import (
	"repro/internal/engine"
	"repro/internal/sched"
)

// Session is a streaming run of the §3 algorithm: jobs are fed one at a
// time in release order and scheduled online. It is the engine's hosted
// session with Close returning this package's Result; a session with the
// same options produces a Result bit-identical to a batch Run over the same
// jobs (pinned by internal/policy's conformance suite). Because a stream has
// no instance to fall back on, Options.Alpha must be set explicitly.
type Session = engine.Typed[*Result]

// NewSession starts a streaming run on the given number of machines,
// preallocating per-job storage when Options.SizeHint announces the
// expected stream size.
func NewSession(machines int, opt Options) (*Session, error) {
	opt, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	return engine.NewTyped(engine.Options{Machines: machines, SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}

// Run executes the algorithm on the instance: a Session sized for the
// instance and fed all of it in one batch, with Alpha resolved from the
// instance when Options.Alpha is zero.
func Run(ins *sched.Instance, opt Options) (*Result, error) {
	if opt.Alpha == 0 {
		opt.Alpha = ins.Alpha
	}
	return engine.RunBatch(ins, func(machines, hint int) (*Session, error) {
		opt.SizeHint = hint
		return NewSession(machines, opt)
	})
}

// result completes the policy's Result with the drained outcome and the
// dual report (nil unless tracked).
func (p *spolicy) result(out *sched.Outcome) *Result {
	p.res.Outcome = out
	p.res.Dual = p.dual
	return p.res
}
