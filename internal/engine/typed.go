package engine

import (
	"fmt"
	"io"

	"repro/internal/sched"
)

// Host is what a policy package supplies to run on the engine: it builds the
// policy for a machine count, sized for a stream of about hint jobs, and
// returns it with the function that reads the policy's own result R off the
// drained outcome.
type Host[R any] func(machines, hint int) (Policy, func(*sched.Outcome) R)

// Typed is a policy package's session: the embedded engine session supplies
// Feed, FeedBatch, AdvanceTo, Fed, Pending, EachFed, SetTelemetry and the
// snapshots, and Close returns the policy's result R (rule counters, duals)
// instead of the bare Outcome. A session and a batch run of the same policy
// and options produce bit-identical results.
type Typed[R any] struct {
	*Session
	result func(*sched.Outcome) R
}

// NewTyped starts a session of the policy host builds for opt.Machines,
// preallocating for opt.SizeHint jobs.
func NewTyped[R any](opt Options, host Host[R]) (*Typed[R], error) {
	if opt.Machines <= 0 {
		return nil, fmt.Errorf("engine: session needs at least one machine, got %d", opt.Machines)
	}
	opt.SizeHint = max(opt.SizeHint, 0)
	p, result := host(opt.Machines, opt.SizeHint)
	s, err := NewSession(p, opt)
	if err != nil {
		p.Close()
		return nil, err
	}
	return &Typed[R]{s, result}, nil
}

// RestoreTyped is RestoreOpts for a hosted policy: host builds the policy for
// the snapshot's machine count, unsized, since LoadState sizes the policy's
// state from the snapshot; opt.SizeHint sizes the engine's per-job storage
// as RestoreOpts says.
func RestoreTyped[R any](r io.Reader, opt Options, host Host[R]) (*Typed[R], error) {
	var result func(*sched.Outcome) R
	s, err := RestoreOpts(r, opt, func(machines int) (Policy, error) {
		var p Policy
		p, result = host(machines, 0)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return &Typed[R]{s, result}, nil
}

// Close drains the run to completion and returns the policy's audited result.
func (s *Typed[R]) Close() (R, error) {
	out, err := s.Session.Close()
	if err != nil {
		var zero R
		return zero, err
	}
	return s.result(out), nil
}

// RunBatch is the batch form of a session: it opens a session sized for the
// instance, feeds it whole and closes it. The feed is the only validation:
// FeedBatch applies Instance.Validate's rules (sched.ValidateJob in release
// order, then id uniqueness) as it goes, and opening the session refuses a
// machine count below one. So an invalid instance fails with an "engine:"
// error naming the offending job, after the jobs before it have been fed and
// run.
func RunBatch[R any, S interface {
	Feeder
	Close() (R, error)
}](ins *sched.Instance, open func(machines, hint int) (S, error)) (R, error) {
	var zero R
	s, err := open(ins.Machines, len(ins.Jobs))
	if err != nil {
		return zero, err
	}
	if err := s.FeedBatch(ins.Jobs); err != nil {
		s.Close() // release the dispatch pool; the feed error wins
		return zero, err
	}
	return s.Close()
}
