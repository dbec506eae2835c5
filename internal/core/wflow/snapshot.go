package wflow

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/snapshot"
)

// The policy implements engine.StatefulPolicy, so wflow sessions can be
// checkpointed and restored bit-identically.
var _ engine.StatefulPolicy = (*wpolicy)(nil)

// SnapshotTag identifies the wflow policy wire format. v2 switched both
// per-machine pending indexes from ostree treaps to flat implicit B-trees
// (ostree.Flat); v1 snapshots are refused by the engine's tag check rather
// than silently misread.
func (p *wpolicy) SnapshotTag() string { return "wflow/v2" }

// SaveState serializes the weighted-rule state: the ε echo, the rejection
// counters and budget, and per machine the weighted Rule 1/2 counters plus
// both pending indexes — structurally, via ostree.Flat.Snapshot, because
// the density index's cached (p, w) aggregates and leaf partition feed the
// weighted λ and must restore bit-exactly.
func (p *wpolicy) SaveState(e *snapshot.Encoder) {
	e.F64(p.opt.Epsilon)
	e.Int(p.res.Rule1Rejections)
	e.Int(p.res.Rule2Rejections)
	e.F64(p.res.RejectedWeight)
	e.U32(uint32(len(p.mach)))
	for i := range p.mach {
		m := &p.mach[i]
		e.F64(m.victimW)
		e.F64(m.counterW)
		m.pending.Snapshot(e)
		m.byProc.Snapshot(e)
	}
}

// LoadState rebuilds the weighted-rule state on a freshly constructed
// policy, validating the ε echo, restoring both indexes structurally, and
// resolving every pending id against the restored job table before the
// policy may look one up.
func (p *wpolicy) LoadState(d *snapshot.Decoder) error {
	eps := d.F64()
	if err := d.Err(); err != nil {
		return err
	}
	if eps != p.opt.Epsilon {
		return fmt.Errorf("wflow: snapshot taken with ε=%v, restoring with ε=%v", eps, p.opt.Epsilon)
	}
	p.res.Rule1Rejections = d.Int()
	p.res.Rule2Rejections = d.Int()
	p.res.RejectedWeight = d.F64()
	if got := int(d.U32()); d.Err() == nil && got != len(p.mach) {
		d.Failf("%d machine states for %d machines", got, len(p.mach))
	}
	if err := d.Err(); err != nil {
		return err
	}
	for i := range p.mach {
		m := &p.mach[i]
		m.victimW = d.F64()
		m.counterW = d.F64()
		if err := m.pending.Restore(d); err != nil {
			return err
		}
		if err := engine.ValidateTreeIDs(p.c, m.pending, d, fmt.Sprintf("machine %d density tree", i)); err != nil {
			return err
		}
		if err := m.byProc.Restore(d); err != nil {
			return err
		}
		if err := engine.ValidateTreeIDs(p.c, m.byProc, d, fmt.Sprintf("machine %d processing-time tree", i)); err != nil {
			return err
		}
		if m.pending.Len() != m.byProc.Len() {
			d.Failf("machine %d trees disagree: %d pending vs %d by-proc", i, m.pending.Len(), m.byProc.Len())
			return d.Err()
		}
	}
	return d.Err()
}

// Restore reconstructs a streaming session from a snapshot written by
// Session.Snapshot. opt.Epsilon must match the donor's (checked against the
// snapshot's echo); ParallelDispatch is performance-only and may differ.
func Restore(r io.Reader, opt Options) (*Session, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return engine.RestoreTyped(r, engine.Options{SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}
