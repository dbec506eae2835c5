package engine

import "repro/internal/snapshot"

// AppendSnapshotPerField exposes the reference encoder to the external
// FuzzSessionEncode, which needs the policy registry and so cannot live in
// this package.
var AppendSnapshotPerField = (*Session).appendSnapshotPerField

// PredictedSnapshotSize exposes the size AppendSnapshot reserves before it
// encodes: exact once the policy section's size is known.
func PredictedSnapshotSize(s *Session) int {
	sp, err := s.stateful()
	if err != nil {
		return -1
	}
	return s.snapshotSize(sp) + s.polBytes
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
	sw.Section(tagQueue, func(e *snapshot.Encoder) { c.q.Snapshot(e) })
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
