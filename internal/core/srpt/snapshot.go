package srpt

import (
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
// B-tree (ostree.Flat); v3 writes each waiting job as its compact index and
// banked remainder rather than a copy of its key. Older snapshots are
// refused by the engine's tag check rather than silently misread.
func (p *policy) SnapshotTag() string { return "srpt/v3" }

// SaveState serializes the preemption counter and each machine's waiting
// index. The least-backlog dispatch reads the index's cached volume sum, so
// the index goes on the wire structurally (ostree.Flat's Snapshot) for
// bit-exact restoration. Each waiting job is its compact index plus the one
// key field the job table cannot give back: Key.P, the remaining processing
// time frozen at the last preemption.
func (p *policy) SaveState(e *snapshot.Encoder) {
	e.Int(p.res.Preemptions)
	e.U32(uint32(len(p.mach)))
	for i := range p.mach {
		p.mach[i].waiting.Snapshot(e, func(k ostree.Key) {
			p.c.WritePending(e, k.ID)
			e.F64(k.P)
		})
	}
}

// LoadState rebuilds the waiting indexes, each key from its job's release
// and id and its banked remainder, which must lie in (0, p_ij]: the
// remainder is frozen state, but a preemption only ever shrinks it.
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
		if err := m.waiting.Restore(d, func() (ostree.Key, float64, float64) {
			jk := p.c.ReadPending(d, i)
			rem := d.F64()
			if jk < 0 || d.Err() != nil {
				return ostree.Key{}, 0, 0
			}
			j := p.c.Job(jk)
			if !(rem > 0) || math.IsInf(rem, 0) {
				d.Failf("machine %d banks a non-positive remaining volume", i)
			} else if rem > j.Proc[i] {
				d.Failf("machine %d banks job %d's remaining volume %v beyond its processing time %v", i, j.ID, rem, j.Proc[i])
			}
			return ostree.Key{P: rem, Release: j.Release, ID: j.ID}, 0, 0
		}); err != nil {
			return err
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
// srpt/v2 did for the waiting indexes; v3, as srpt/v3, names each pooled
// job by its compact index, and leaves the min-proc column off the wire.
func (p *wpolicy) SnapshotTag() string { return "wsrpt/v3" }

// SaveState serializes the migratory pool state: the preemption/migration
// tallies, the dense per-job (remaining fraction, last machine) pairs, and
// the global density pool — structurally, like every index in a snapshot,
// so the restored pool is bit-for-bit the donor's — each pooled job named
// by its compact index. The cached min-proc is the job row's MinProc.
func (p *wpolicy) SaveState(e *snapshot.Encoder) {
	e.Int(p.res.Preemptions)
	e.Int(p.res.Migrations)
	e.U64(uint64(len(p.frac)))
	for k := range p.frac {
		e.F64(p.frac[k])
		e.I64(int64(p.lastMach[k]))
	}
	p.pending.Snapshot(e, func(k ostree.Key) { p.c.WritePending(e, k.ID) })
}

// LoadState rebuilds the dense job state and the global density pool,
// validating every index and that pooled jobs carry a usable fraction;
// each pooled key is rebuilt by key(jk), as the insert path builds it.
func (p *wpolicy) LoadState(d *snapshot.Decoder) error {
	p.res.Preemptions = d.Int()
	p.res.Migrations = d.Int()
	njobs := p.c.NumJobs()
	n := d.Count(8 + 8)
	if d.Err() == nil && n > njobs {
		d.Failf("dense state for %d jobs, only %d fed", n, njobs)
	}
	if err := d.Err(); err != nil {
		return err
	}
	machines := p.c.Machines()
	for k := 0; k < n; k++ {
		frac := d.F64()
		lastMach := d.I64()
		if d.Err() != nil {
			return d.Err()
		}
		if lastMach < -1 || lastMach >= int64(machines) {
			d.Failf("job index %d last ran on unknown machine %d", k, lastMach)
			return d.Err()
		}
		p.frac = append(p.frac, frac)
		p.pmin = append(p.pmin, p.c.Job(k).MinProc())
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
	return p.pending.Restore(d, func() (ostree.Key, float64, float64) {
		jk := p.c.ReadPending(d, -1)
		if jk < 0 {
			return ostree.Key{}, 0, 0
		}
		if !(p.frac[jk] > 0) {
			d.Failf("pool holds job %d with remaining fraction %v", p.c.ID(jk), p.frac[jk])
		}
		return p.key(jk), 0, 0
	})
}

// RestoreWeighted reconstructs a streaming migratory weighted-SRPT session
// from a snapshot written by WeightedSession.Snapshot.
func RestoreWeighted(r io.Reader, opt WeightedOptions) (*WeightedSession, error) {
	return engine.RestoreTyped(r, engine.Options{SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}
