package engine

import "repro/internal/snapshot"

// AppendSnapshotPerField exposes the reference encoder to the external
// FuzzSessionEncode and FuzzFleetCapture, which need the policy registry and
// so cannot live in this package.
var AppendSnapshotPerField = (*Session).appendSnapshotPerField

// CaptureScratch is the capacity of the one buffer a session keeps for
// checkpoint capture, its policy section's scratch.
func CaptureScratch(s *Session) int { return cap(s.pol.Bytes()) }

// AppendFleetNested is fleet capture the way Shard.AppendSnapshot did it
// before its sessions encoded in place: each session encoded into a buffer of
// its own (here by the per-field reference), then copied into its SHRD frame
// by Nest. It is the reference the in-place fleet capture's bytes are held
// to, and is kept here only for that. The sessions must be quiesced.
func AppendFleetNested(sessions []*Session, dst []byte) ([]byte, error) {
	sw := snapshot.AppendWriter(dst)
	sw.Section(tagFleet, func(e *snapshot.Encoder) { e.U32(uint32(len(sessions))) })
	for _, s := range sessions {
		sw.Nest(tagShard, s.appendSnapshotPerField)
	}
	err := sw.Close()
	return sw.Bytes(), err
}

// appendSnapshotPerField is session capture written one Encoder call per
// field, the way every section was encoded before the fixed-size records
// went in bulk. It is the reference AppendSnapshot's bytes are held to, and
// is kept here only for that.
func (s *Session) appendSnapshotPerField(dst []byte) ([]byte, error) {
	sp, err := s.stateful()
	if err != nil {
		return dst, err
	}
	c := &s.core
	sw := snapshot.AppendWriter(dst)
	sw.Section(tagSession, func(e *snapshot.Encoder) {
		e.U32(uint32(len(c.mach)))
		e.U64(uint64(len(c.jobs)))
		e.F64(s.last)
		e.F64(s.floor)
		e.I64(int64(c.seq))
	})
	sw.Section(tagJobs, func(e *snapshot.Encoder) {
		e.U64(uint64(len(c.jobs)))
		for k := range c.jobs {
			j := &c.jobs[k]
			e.I64(int64(j.ID))
			e.F64(j.Release)
			e.F64(j.Weight)
			e.F64(j.Deadline)
			for _, p := range j.Proc {
				e.F64(p)
			}
		}
	})
	sw.Section(tagDone, func(e *snapshot.Encoder) {
		e.U64(uint64(len(c.done)))
		for _, d := range c.done {
			e.F64(d)
		}
	})
	sw.Section(tagMach, func(e *snapshot.Encoder) {
		e.U32(uint32(len(c.mach)))
		for i := range c.mach {
			m := &c.mach[i]
			e.I64(int64(m.Running))
			e.I64(int64(m.RunSeq))
			e.F64(m.RunStart)
			e.F64(m.RunVol)
			e.F64(m.RunSpeed)
		}
	})
	sw.Section(tagQueue, func(e *snapshot.Encoder) {
		c.q.Snapshot(e)
		e.U64(uint64(len(c.arrivals())))
		for _, jk := range c.arrivals() {
			e.U32(uint32(jk))
		}
	})
	sw.Section(tagOutcome, func(e *snapshot.Encoder) {
		ivs := c.rec.Intervals()
		e.U64(uint64(len(ivs)))
		for k := range ivs {
			iv := &ivs[k]
			e.I64(int64(iv.Job))
			e.U32(uint32(iv.Machine))
			e.F64(iv.Start)
			e.F64(iv.End)
			e.F64(iv.Speed)
		}
		n := c.rec.Len()
		e.U64(uint64(n))
		for jk := 0; jk < n; jk++ {
			e.U8(c.rec.State(jk))
			e.F64(c.rec.When(jk))
			e.U32(uint32(c.rec.Machine(jk)))
		}
	})
	sw.Section(tagPolicy, func(e *snapshot.Encoder) {
		e.Str(sp.SnapshotTag())
		sp.SaveState(e)
	})
	err = sw.Close()
	return sw.Bytes(), err
}
