package engine

import (
	"fmt"
	"math"

	"repro/internal/sched"
	"repro/internal/snapshot"
)

// RestorePerField runs restore with every session it restores decoded by the
// per-field reference instead of restoreInto, for the external
// FuzzSessionDecode, which needs the policy registry and so cannot live in
// this package. Not safe to run beside other restores.
func RestorePerField[T any](restore func() (T, error)) (T, error) {
	restoreSections = restoreIntoPerField
	defer func() { restoreSections = restoreInto }()
	return restore()
}

// restoreIntoPerField is restoreInto written one Decoder call per field, the
// way every section was decoded before the fixed-size record runs went in
// bulk. It is the reference restoreInto's sessions and errors are held to,
// and is kept here only for that.
func restoreIntoPerField(sr *snapshot.Reader, s *Session, sp StatefulPolicy) error {
	c := &s.core
	machines := len(c.mach)
	horizon := c.Drained()

	d, err := sr.Section(tagJobs)
	if err != nil {
		return err
	}
	n := d.Count(jobRecord(machines))
	// Every job's processing times share one array: a resumed session
	// allocates its job table in a few objects, not one per job. Count has
	// bounded n by the bytes in the section.
	procs := make([]float64, n*machines)
	lastRelease := math.Inf(-1)
	for k := 0; k < n; k++ {
		j := sched.Job{
			ID:       d.Int(),
			Release:  d.F64(),
			Weight:   d.F64(),
			Deadline: d.F64(),
			Proc:     procs[k*machines : (k+1)*machines : (k+1)*machines],
		}
		for i := range j.Proc {
			j.Proc[i] = d.F64()
		}
		if d.Err() != nil {
			return d.Err()
		}
		// The job table must replay cleanly through the same structural
		// rules Feed enforces; a snapshot can only hold jobs Feed admitted.
		if verr := sched.ValidateJob(&j, machines, lastRelease); verr != nil {
			d.Failf("job %d of the snapshot is not feedable: %v", k, verr)
			return d.Err()
		}
		if j.Release > lastRelease {
			lastRelease = j.Release
		}
		if _, ok := c.ids.Add(j.ID); !ok {
			d.Failf("duplicate job id %d", j.ID)
			return d.Err()
		}
		c.jobs = append(c.jobs, j)
		c.rec.Add()
		if j.Release > horizon {
			c.pushArrival(k)
		}
	}
	if err := d.Done(); err != nil {
		return err
	}
	njobs := len(c.jobs)

	d, err = sr.Section(tagDone)
	if err != nil {
		return err
	}
	if got := d.Count(8); got != njobs {
		d.Failf("%d conservation entries for %d jobs", got, njobs)
		return d.Err()
	}
	for k := 0; k < njobs; k++ {
		c.done = append(c.done, d.F64())
	}
	if err := d.Done(); err != nil {
		return err
	}

	d, err = sr.Section(tagMach)
	if err != nil {
		return err
	}
	if got := int(d.U32()); got != machines {
		d.Failf("%d machine states for %d machines", got, machines)
		return d.Err()
	}
	for i := range c.mach {
		m := &c.mach[i]
		running := d.I64()
		runSeq := d.I64()
		m.RunStart = d.F64()
		m.RunVol = d.F64()
		m.RunSpeed = d.F64()
		if d.Err() != nil {
			return d.Err()
		}
		if running < -1 || running >= int64(njobs) {
			d.Failf("machine %d runs unknown job index %d", i, running)
			return d.Err()
		}
		if runSeq < 0 || runSeq > int64(c.seq) {
			d.Failf("machine %d start version %d above the session counter %d", i, runSeq, c.seq)
			return d.Err()
		}
		if running != -1 && !(m.RunSpeed > 0) {
			d.Failf("machine %d running at speed %v", i, m.RunSpeed)
			return d.Err()
		}
		m.Running = int32(running)
		m.RunSeq = int32(runSeq)
	}
	if err := restoreQueue(c, d); err != nil {
		return err
	}
	if err := d.Done(); err != nil {
		return err
	}

	d, err = outcomeSection(sr)
	if err != nil {
		return err
	}
	if err := restoreOutcomePerField(d, c); err != nil {
		return err
	}
	if err := validateArrivalsOpen(c, d); err != nil {
		return err
	}
	if err := d.Done(); err != nil {
		return err
	}

	sp.Bind(c)
	d, err = sr.Section(tagPolicy)
	if err != nil {
		return err
	}
	if tag := d.Str(); d.Err() == nil && tag != sp.SnapshotTag() {
		return fmt.Errorf("snapshot: taken with policy %q, restoring into %q", tag, sp.SnapshotTag())
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := sp.LoadState(d); err != nil {
		return err
	}
	if err := d.Done(); err != nil {
		return err
	}
	return sr.End()
}

// restoreOutcomePerField is restoreOutcome one Decoder call per field, the
// reference for its OUTC section.
func restoreOutcomePerField(d *snapshot.Decoder, c *Core) error {
	njobs := len(c.jobs)
	n := d.Count(intervalRecord)
	c.rec.GrowIntervals(n)
	for k := 0; k < n; k++ {
		iv := sched.Interval{
			Job:     d.Int(),
			Machine: int(int32(d.U32())),
			Start:   d.F64(),
			End:     d.F64(),
			Speed:   d.F64(),
		}
		if d.Err() != nil {
			return d.Err()
		}
		if c.ids.Of(iv.Job) < 0 || iv.Machine < 0 || iv.Machine >= len(c.mach) {
			d.Failf("interval %d references unknown job %d or machine %d", k, iv.Job, iv.Machine)
			return d.Err()
		}
		c.rec.AppendInterval(iv)
	}
	if slots := d.Count(slotRecord); slots != njobs {
		d.Failf("%d outcome slots for %d jobs", slots, njobs)
		return d.Err()
	}
	for jk := 0; jk < njobs; jk++ {
		st := d.U8()
		when := d.F64()
		mach := int32(d.U32())
		if d.Err() != nil {
			return d.Err()
		}
		switch st {
		case sched.JobOpen:
			// Open slots must carry the zero timestamp so re-snapshotting a
			// restored session reproduces the donor's bytes exactly.
			if when != 0 {
				d.Failf("open job %d carries decision time %v", c.jobs[jk].ID, when)
				return d.Err()
			}
		case sched.JobCompleted:
			c.rec.Complete(jk, when)
		case sched.JobRejected:
			c.rec.Reject(jk, when)
		default:
			d.Failf("job %d has unknown outcome state %d", c.jobs[jk].ID, st)
			return d.Err()
		}
		if mach != sched.NoMachine {
			if mach < 0 || int(mach) >= len(c.mach) {
				d.Failf("job %d assigned to unknown machine %d", c.jobs[jk].ID, mach)
				return d.Err()
			}
			c.rec.Assign(jk, int(mach))
		}
	}
	return nil
}
