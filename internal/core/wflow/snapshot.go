package wflow

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/ostree"
	"repro/internal/snapshot"
)

// The policy implements engine.StatefulPolicy, so wflow sessions can be
// checkpointed and restored bit-identically.
var _ engine.StatefulPolicy = (*wpolicy)(nil)

// SnapshotTag identifies the wflow policy wire format. v2 switched both
// per-machine pending indexes from ostree treaps to flat implicit B-trees
// (ostree.Flat); v3 writes each pending job as its compact index rather
// than a copy of its key and (p, w) values. Older snapshots are refused by
// the engine's tag check rather than silently misread.
func (p *wpolicy) SnapshotTag() string { return "wflow/v3" }

// SaveState serializes the weighted-rule state: the ε echo, the rejection
// counters and budget, and per machine the weighted Rule 1/2 counters plus
// both pending indexes — structurally, via ostree.Flat.Snapshot, because
// the density index's cached (p, w) aggregates and leaf partition feed the
// weighted λ and must restore bit-exactly. Each element is its job's
// compact index: its keys and (p, w) values are its row's.
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
		put := func(k ostree.Key) { p.c.WritePending(e, k.ID) }
		m.pending.Snapshot(e, put)
		m.byProc.Snapshot(e, put)
	}
}

// LoadState rebuilds the weighted-rule state on a freshly constructed
// policy, validating the ε echo and restoring both indexes structurally,
// each element rebuilt from the job its index names, as the insert path
// builds it.
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
		if err := m.pending.Restore(d, func() (ostree.Key, float64, float64) {
			if jk := p.c.ReadPending(d, i); jk >= 0 {
				j := p.c.Job(jk)
				return p.densityKey(j, i), j.Proc[i], j.Weight
			}
			return ostree.Key{}, 0, 0
		}); err != nil {
			return err
		}
		if err := m.byProc.Restore(d, func() (ostree.Key, float64, float64) {
			if jk := p.c.ReadPending(d, i); jk >= 0 {
				return p.procKey(p.c.Job(jk), i), 0, 0
			}
			return ostree.Key{}, 0, 0
		}); err != nil {
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
