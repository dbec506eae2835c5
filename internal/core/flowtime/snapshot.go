package flowtime

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/ostree"
	"repro/internal/snapshot"
)

// The policy implements engine.StatefulPolicy, so flowtime sessions can be
// checkpointed and restored bit-identically (see internal/engine's
// Snapshot/Restore and DESIGN.md).
var _ engine.StatefulPolicy = (*policy)(nil)

// SnapshotTag identifies the flowtime policy wire format. v2 switched the
// per-machine pending index from the ostree treap to the flat implicit
// B-tree (ostree.Flat) and serializes its structural snapshot instead; v3
// writes each pending job as its compact index rather than a copy of its
// key. Older snapshots are refused by the engine's tag check rather than
// silently misread.
func (p *policy) SnapshotTag() string { return "flowtime/v3" }

// SaveState serializes every piece of policy state that can influence a
// future decision: the option echo (so a restore under different semantics
// fails loudly), the rule counters, each machine's pending SPT index —
// structurally, via ostree.Flat.Snapshot, because the index's cached sums
// and leaf partition feed λ and must restore bit-exactly, each job named by
// its compact index (its key is its row's) — and the Rule 1/2
// counters, plus, under TrackDual, the dual bookkeeping (occupancy
// integrals, breakpoint traces and the dense λ/C̃/snapshot slices). The
// V_i exits the dual bookkeeping has scheduled are not written: LoadState
// schedules them again from C̃. Arena free lists and the dispatch pool are
// performance-only and rebuilt on load.
func (p *policy) SaveState(e *snapshot.Encoder) {
	e.F64(p.opt.Epsilon)
	e.Bool(p.opt.DisableRule1)
	e.Bool(p.opt.DisableRule2)
	e.Bool(p.track)
	e.Int(p.res.Dispatches)
	e.Int(p.res.Rule1Rejections)
	e.Int(p.res.Rule2Rejections)
	e.U32(uint32(len(p.mach)))
	for i := range p.mach {
		m := &p.mach[i]
		m.pending.Snapshot(e, func(k ostree.Key) { p.c.WritePending(e, k.ID) })
		e.Int(m.runVictims)
		e.Int(m.counter)
		e.F64(m.remnantAcc)
		if p.track {
			e.Int(m.occ)
			e.F64(m.occLast)
			e.F64(m.occInt)
			e.U64(uint64(len(m.bpTimes)))
			for k := range m.bpTimes {
				e.F64(m.bpTimes[k])
				e.Int(m.bpValues[k])
			}
		}
	}
	if p.track {
		e.U64(uint64(len(p.snap)))
		for k := range p.snap {
			e.F64(p.snap[k])
			e.F64(p.ctilde[k])
			e.F64(p.lambda[k])
		}
	}
}

// LoadState rebuilds the policy state on a freshly constructed policy. The
// snapshot's option echo must match the restoring options exactly — resuming
// a stream under a different ε or rule set would be a silent semantic fork.
func (p *policy) LoadState(d *snapshot.Decoder) error {
	eps := d.F64()
	d1, d2, track := d.Bool(), d.Bool(), d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if eps != p.opt.Epsilon || d1 != p.opt.DisableRule1 || d2 != p.opt.DisableRule2 || track != p.track {
		return fmt.Errorf("flowtime: snapshot taken with ε=%v rule1-off=%v rule2-off=%v dual=%v, restoring with ε=%v rule1-off=%v rule2-off=%v dual=%v",
			eps, d1, d2, track, p.opt.Epsilon, p.opt.DisableRule1, p.opt.DisableRule2, p.track)
	}
	p.res.Dispatches = d.Int()
	p.res.Rule1Rejections = d.Int()
	p.res.Rule2Rejections = d.Int()
	if got := int(d.U32()); d.Err() == nil && got != len(p.mach) {
		d.Failf("%d machine states for %d machines", got, len(p.mach))
	}
	if err := d.Err(); err != nil {
		return err
	}
	for i := range p.mach {
		m := &p.mach[i]
		if err := m.pending.Restore(d, func() (ostree.Key, float64, float64) {
			if jk := p.c.ReadPending(d, i); jk >= 0 {
				return p.key(p.c.Job(jk), i), 0, 0
			}
			return ostree.Key{}, 0, 0
		}); err != nil {
			return err
		}
		m.runVictims = d.Int()
		m.counter = d.Int()
		m.remnantAcc = d.F64()
		if p.track {
			m.occ = d.Int()
			m.occLast = d.F64()
			m.occInt = d.F64()
			bp := d.Count(8 + 8)
			for k := 0; k < bp; k++ {
				m.bpTimes = append(m.bpTimes, d.F64())
				m.bpValues = append(m.bpValues, d.Int())
			}
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
	if p.track {
		n := d.Count(3 * 8)
		if d.Err() == nil && n > p.c.NumJobs() {
			d.Failf("dual state for %d jobs, only %d fed", n, p.c.NumJobs())
		}
		for k := 0; k < n; k++ {
			p.snap = append(p.snap, d.F64())
			p.ctilde = append(p.ctilde, d.F64())
			p.lambda = append(p.lambda, d.F64())
		}
		// Pad to the full job table. The donor grows these lazily at each
		// arrival pop, so a snapshot legitimately carries fewer entries than
		// jobs — but a corrupt count below an index the restored engine
		// state still references (a running job, a queued completion) would
		// otherwise surface as an index panic deep in the drain loop. The
		// pad value is exactly what growDual appends, and every entry is
		// written at its job's arrival before any read, so padding is
		// invisible to the resumed run.
		for len(p.snap) < p.c.NumJobs() {
			p.snap = append(p.snap, 0)
			p.ctilde = append(p.ctilde, 0)
			p.lambda = append(p.lambda, 0)
		}
		// The exits from V_i still to come: every decided job whose C̃ lies
		// past the drain horizon leaves its machine's V_i then. OnBookkeeping
		// reads only the time and the machine, so how simultaneous exits
		// tie does not matter.
		h := p.c.Drained()
		for jk, ct := range p.ctilde {
			decided, i := p.c.Decided(jk)
			if !decided || !(ct > h) {
				continue
			}
			if i < 0 {
				d.Failf("job %d leaves V at %v but names no machine", p.c.ID(jk), ct)
				return d.Err()
			}
			p.c.Bookkeep(ct, i, jk)
		}
	}
	return d.Err()
}

// Restore reconstructs a streaming session from a snapshot written by
// Session.Snapshot. opt must carry the same semantic configuration the donor
// ran with (Epsilon, rule switches, TrackDual) — a mismatch is detected from
// the snapshot's option echo and fails loudly; ParallelDispatch is
// performance-only and may differ. The machine count comes from the
// snapshot itself.
func Restore(r io.Reader, opt Options) (*Session, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return engine.RestoreTyped(r, engine.Options{SizeHint: opt.SizeHint, EventQueue: opt.EventQueue}, opt.newPolicy)
}
