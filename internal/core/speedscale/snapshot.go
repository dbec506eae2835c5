package speedscale

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/engine"
	"repro/internal/snapshot"
)

// The policy implements engine.StatefulPolicy, so speedscale sessions can be
// checkpointed and restored bit-identically.
var _ engine.StatefulPolicy = (*spolicy)(nil)

// SnapshotTag identifies the speedscale policy wire format. v2 writes each
// pending job's compact index in four bytes, as every policy's pending
// index does (engine.Core.WritePending), not eight; v1 snapshots are
// refused by the engine's tag check rather than silently misread.
func (p *spolicy) SnapshotTag() string { return "speedscale/v2" }

// SaveState serializes the §3 policy state: the (ε, α, γ) echo — γ as
// actually resolved, since it scales every execution speed — the rejection
// tallies, and per machine the weighted victim counter, the remnant-time
// accumulator and the pending list as compact job indices in density order
// (every pitem field, the cached suffix weight included, re-derives
// bit-identically from the job table). Under TrackDual the per-job dispatch
// snapshots and the dual execution records ride along.
func (p *spolicy) SaveState(e *snapshot.Encoder) {
	e.F64(p.opt.Epsilon)
	e.F64(p.alpha)
	e.F64(p.gamma)
	e.Bool(p.dual != nil)
	e.Int(p.res.Rejections)
	e.F64(p.res.RejectedWeight)
	e.U32(uint32(len(p.mach)))
	for i := range p.mach {
		m := &p.mach[i]
		e.F64(m.victimW)
		e.F64(m.remTimeAcc)
		e.U64(uint64(len(m.pending)))
		for k := range m.pending {
			e.U32(uint32(m.pending[k].id))
		}
	}
	if p.dual != nil {
		e.U64(uint64(len(p.snap)))
		for _, v := range p.snap {
			e.F64(v)
		}
		ids := make([]int, 0, len(p.dual.execs))
		for id := range p.dual.execs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		e.U64(uint64(len(ids)))
		for _, id := range ids {
			r := p.dual.execs[id]
			e.Int(id)
			e.F64(p.dual.Lambda[id])
			e.U32(uint32(r.machine))
			e.F64(r.release)
			e.F64(r.weight)
			e.F64(r.proc)
			e.Bool(r.started)
			e.F64(r.start)
			e.F64(r.speed)
			e.F64(r.finish)
			e.F64(r.remnant)
			e.F64(r.defFinish)
			e.Bool(r.finished)
		}
	}
}

// LoadState rebuilds the policy state on a freshly constructed policy,
// validating the configuration echo and every job index against the
// restored session.
func (p *spolicy) LoadState(d *snapshot.Decoder) error {
	eps, alpha, gamma := d.F64(), d.F64(), d.F64()
	track := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if eps != p.opt.Epsilon || alpha != p.alpha || gamma != p.gamma || track != (p.dual != nil) {
		return fmt.Errorf("speedscale: snapshot taken with ε=%v α=%v γ=%v dual=%v, restoring with ε=%v α=%v γ=%v dual=%v",
			eps, alpha, gamma, track, p.opt.Epsilon, p.alpha, p.gamma, p.dual != nil)
	}
	p.res.Rejections = d.Int()
	p.res.RejectedWeight = d.F64()
	if got := int(d.U32()); d.Err() == nil && got != len(p.mach) {
		d.Failf("%d machine states for %d machines", got, len(p.mach))
	}
	if err := d.Err(); err != nil {
		return err
	}
	njobs := p.c.NumJobs()
	for i := range p.mach {
		m := &p.mach[i]
		m.victimW = d.F64()
		m.remTimeAcc = d.F64()
		n := d.Count(4)
		for k := 0; k < n; k++ {
			jk := p.c.ReadPending(d, i)
			if jk < 0 {
				return d.Err()
			}
			j := p.c.Job(jk)
			m.pending = append(m.pending, pitem{
				id: jk, w: j.Weight, p: j.Proc[i], density: j.Weight / j.Proc[i], release: j.Release,
			})
		}
		// The donor's list was maintained in strict density order (ids
		// break ties); a permutation or a repeat here means the snapshot
		// lied about it.
		for k := 1; k < len(m.pending); k++ {
			if !pless(m.pending[k-1], m.pending[k]) {
				d.Failf("machine %d pending list repeats or leaves density order at entry %d", i, k)
				return d.Err()
			}
		}
		m.resum(len(m.pending) - 1)
	}
	if p.dual != nil {
		n := d.Count(8)
		if d.Err() == nil && n > njobs {
			d.Failf("dual snapshots for %d jobs, only %d fed", n, njobs)
		}
		for k := 0; k < n; k++ {
			p.snap = append(p.snap, d.F64())
		}
		// Pad to the full job table: the donor grows snap lazily per
		// arrival, so short counts are legitimate, but a corrupt count must
		// not leave an index the restored run state references out of
		// range (cf. flowtime's dual pad). Entries are written at arrival
		// before any read, so the pad is invisible.
		for len(p.snap) < njobs {
			p.snap = append(p.snap, 0)
		}
		cnt := d.Count(8*10 + 4 + 2)
		for k := 0; k < cnt; k++ {
			id := d.Int()
			lambda := d.F64()
			r := p.slab.alloc()
			r.machine = int(int32(d.U32()))
			r.release = d.F64()
			r.weight = d.F64()
			r.proc = d.F64()
			r.started = d.Bool()
			r.start = d.F64()
			r.speed = d.F64()
			r.finish = d.F64()
			r.remnant = d.F64()
			r.defFinish = d.F64()
			r.finished = d.Bool()
			if d.Err() != nil {
				return d.Err()
			}
			if p.c.IndexOf(id) < 0 || r.machine < 0 || r.machine >= len(p.mach) {
				d.Failf("dual record references unknown job %d or machine %d", id, r.machine)
				return d.Err()
			}
			p.dual.Lambda[id] = lambda
			p.dual.execs[id] = r
		}
	}
	return d.Err()
}

// Restore reconstructs a streaming session from a snapshot written by
// Session.Snapshot. opt must resolve to the donor's (ε, α, γ, TrackDual) —
// Alpha is required, exactly as in NewSession, and γ defaults the same way —
// which the snapshot's configuration echo verifies; ParallelDispatch is
// performance-only and may differ.
func Restore(r io.Reader, opt Options) (*Session, error) {
	opt, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	return engine.RestoreTyped(r, engine.Options{SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}
