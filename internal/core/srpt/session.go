package srpt

import (
	"repro/internal/engine"
	"repro/internal/sched"
)

// Session is a streaming per-machine preemptive SRPT run: jobs are fed one
// at a time in release order and scheduled online. It is the engine's hosted
// session with Close returning this package's Result; a session with the
// same options produces a Result bit-identical to a batch Run over the same
// jobs (pinned by internal/policy's conformance suite), so it serves behind
// the front door exactly like the λ-dispatch policies.
type Session = engine.Typed[*Result]

// NewSession starts a streaming run on the given number of machines,
// preallocating per-job storage when Options.SizeHint announces the
// expected stream size.
func NewSession(machines int, opt Options) (*Session, error) {
	return engine.NewTyped(engine.Options{Machines: machines, SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}

// Run executes per-machine preemptive SRPT on the instance: a Session sized
// for the instance and fed all of it in one batch.
func Run(ins *sched.Instance, opt Options) (*Result, error) {
	return engine.RunBatch(ins, func(machines, hint int) (*Session, error) {
		opt.SizeHint = hint
		return NewSession(machines, opt)
	})
}

// WeightedSession is the streaming form of the migratory weighted-SRPT
// comparator, hosted like Session.
type WeightedSession = engine.Typed[*WeightedResult]

// NewWeightedSession starts a streaming migratory weighted-SRPT run,
// preallocating per-job storage when WeightedOptions.SizeHint announces the
// expected stream size.
func NewWeightedSession(machines int, opt WeightedOptions) (*WeightedSession, error) {
	return engine.NewTyped(engine.Options{Machines: machines, SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}

// RunWeighted executes the migratory weighted-SRPT comparator on the
// instance, like Run.
func RunWeighted(ins *sched.Instance, opt WeightedOptions) (*WeightedResult, error) {
	return engine.RunBatch(ins, func(machines, hint int) (*WeightedSession, error) {
		opt.SizeHint = hint
		return NewWeightedSession(machines, opt)
	})
}

// result completes the policy's Result with the drained outcome.
func (p *policy) result(out *sched.Outcome) *Result {
	p.res.Outcome = out
	return p.res
}

// result completes the policy's WeightedResult with the drained outcome.
func (p *wpolicy) result(out *sched.Outcome) *WeightedResult {
	p.res.Outcome = out
	return p.res
}
