package srpt

import (
	"fmt"
	"io"
	"math"

	"repro/internal/engine"
	"repro/internal/ostree"
	"repro/internal/snapshot"
)

// Both comparator policies implement engine.StatefulPolicy, so srpt and
// wsrpt sessions can be checkpointed and restored bit-identically.
var (
	_ engine.StatefulPolicy = (*policy)(nil)
	_ engine.StatefulPolicy = (*wpolicy)(nil)
)

// SnapshotTag identifies the per-machine SRPT policy wire format. v2
// switched the waiting index from the ostree treap to the flat implicit
// B-tree (ostree.Flat); v1 snapshots are refused by the engine's tag check
// rather than silently misread.
func (p *policy) SnapshotTag() string { return "srpt/v2" }

// SaveState serializes the preemption counter and each machine's waiting
// index. The waiting keys carry state that cannot be re-derived from the job
// table — Key.P is the remaining processing time frozen at the last
// preemption — and the least-backlog dispatch reads the index's cached
// volume sum, so the index goes on the wire structurally (ostree.Flat's
// Snapshot) for bit-exact restoration.
func (p *policy) SaveState(e *snapshot.Encoder) {
	e.Int(p.res.Preemptions)
	e.U32(uint32(len(p.mach)))
	for i := range p.mach {
		p.mach[i].waiting.Snapshot(e)
	}
}

// LoadState rebuilds the waiting indexes, validating that every banked
// remainder is a positive finite volume of a known job.
func (p *policy) LoadState(d *snapshot.Decoder) error {
	p.res.Preemptions = d.Int()
	if got := int(d.U32()); d.Err() == nil && got != len(p.mach) {
		d.Failf("%d machine states for %d machines", got, len(p.mach))
	}
	if err := d.Err(); err != nil {
		return err
	}
	for i := range p.mach {
		m := &p.mach[i]
		if err := m.waiting.Restore(d); err != nil {
			return err
		}
		if err := engine.ValidateTreeIDs(p.c, m.waiting, d, fmt.Sprintf("machine %d waiting tree", i)); err != nil {
			return err
		}
		bad := false
		m.waiting.Ascend(func(k ostree.Key) bool {
			if !(k.P > 0) || math.IsInf(k.P, 0) {
				bad = true
				return false
			}
			return true
		})
		if bad {
			d.Failf("machine %d banks a non-positive remaining volume", i)
			return d.Err()
		}
	}
	return d.Err()
}

// Restore reconstructs a streaming per-machine SRPT session from a snapshot
// written by Session.Snapshot. The machine count comes from the snapshot;
// opt.ParallelDispatch is performance-only and may differ from the donor's.
func Restore(r io.Reader, opt Options) (*Session, error) {
	return engine.RestoreTyped(r, engine.Options{SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}

// SnapshotTag identifies the migratory weighted-SRPT policy wire format. v2
// switched the density pool from the ostree treap to ostree.Flat, as
// srpt/v2 did for the waiting indexes.
func (p *wpolicy) SnapshotTag() string { return "wsrpt/v2" }

// SaveState serializes the migratory pool state: the preemption/migration
// tallies, the dense per-job (remaining fraction, cached min-proc, last
// machine) triples, and the global density pool — structurally, like every
// index in a snapshot, so the restored pool is bit-for-bit the donor's.
func (p *wpolicy) SaveState(e *snapshot.Encoder) {
	e.Int(p.res.Preemptions)
	e.Int(p.res.Migrations)
	e.U64(uint64(len(p.frac)))
	for k := range p.frac {
		e.F64(p.frac[k])
		e.F64(p.pmin[k])
		e.I64(int64(p.lastMach[k]))
	}
	p.pending.Snapshot(e)
}

// LoadState rebuilds the dense job state and the global density pool,
// validating every index and that pooled jobs carry usable fractions before
// their keys are recomputed.
func (p *wpolicy) LoadState(d *snapshot.Decoder) error {
	p.res.Preemptions = d.Int()
	p.res.Migrations = d.Int()
	njobs := p.c.NumJobs()
	n := d.Count(8 + 8 + 8)
	if d.Err() == nil && n > njobs {
		d.Failf("dense state for %d jobs, only %d fed", n, njobs)
	}
	if err := d.Err(); err != nil {
		return err
	}
	machines := p.c.Machines()
	for k := 0; k < n; k++ {
		frac := d.F64()
		pmin := d.F64()
		lastMach := d.I64()
		if d.Err() != nil {
			return d.Err()
		}
		if lastMach < -1 || lastMach >= int64(machines) {
			d.Failf("job index %d last ran on unknown machine %d", k, lastMach)
			return d.Err()
		}
		p.frac = append(p.frac, frac)
		p.pmin = append(p.pmin, pmin)
		p.lastMach = append(p.lastMach, int32(lastMach))
	}
	// Pad to the full job table: the donor grows the dense state lazily per
	// arrival pop, so short counts are legitimate, but a corrupt count must
	// not leave an index the restored engine state references (a running
	// job's completion handler reads lastMach) out of range. OnArrival
	// overwrites all three fields before any read, so the pad is invisible.
	for len(p.frac) < njobs {
		p.frac = append(p.frac, 0)
		p.pmin = append(p.pmin, 0)
		p.lastMach = append(p.lastMach, -1)
	}
	if err := p.pending.Restore(d); err != nil {
		return err
	}
	bad := false
	p.pending.Ascend(func(k ostree.Key) bool {
		jk := p.c.IndexOf(k.ID)
		if jk < 0 || jk >= len(p.frac) || !(p.frac[jk] > 0) || !(p.pmin[jk] > 0) {
			bad = true
			return false
		}
		return true
	})
	if bad {
		d.Failf("pool holds a job without usable dense state")
		return d.Err()
	}
	return d.Err()
}

// RestoreWeighted reconstructs a streaming migratory weighted-SRPT session
// from a snapshot written by WeightedSession.Snapshot.
func RestoreWeighted(r io.Reader, opt WeightedOptions) (*WeightedSession, error) {
	return engine.RestoreTyped(r, engine.Options{SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}
