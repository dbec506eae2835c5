package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/sched"
	"repro/internal/snapshot"
)

// StatefulPolicy is the checkpoint/restore hook of a Policy: a policy that
// implements it can be frozen into a snapshot section and reconstructed in a
// fresh process. All five scheduling policies of internal/core implement it.
//
// The contract mirrors the engine's bit-identical-resume guarantee: LoadState
// applied to a freshly constructed policy (same options, same machine count)
// must leave it in a state from which every future decision is identical to
// the donor policy's — SaveState therefore has to enumerate every piece of
// state that can influence a decision and that the restored engine state
// does not determine: counters, accumulators, history-dependent cached sums.
// What the job table does determine is named, not copied: a pending job is
// written as its compact index (WritePending), and LoadState rebuilds its
// keys from the restored row exactly as the insert path built them. Derived
// performance-only state (arena free lists, pool buffers) is deliberately
// NOT serialized: it is rebuilt on load and cannot influence outcomes.
type StatefulPolicy interface {
	Policy
	// SnapshotTag identifies the policy implementation and its wire-format
	// version (e.g. "flowtime/v1"). Restore fails loudly when the tag in the
	// snapshot does not match the restoring policy's.
	SnapshotTag() string
	// SaveState serializes the policy's decision state. It must not mutate
	// the policy: a snapshot is a read-only observation of a live session.
	SaveState(e *snapshot.Encoder)
	// LoadState reconstructs the decision state on a freshly constructed,
	// already Bound policy. It validates as it decodes (option echoes,
	// index ranges) and reports corruption via the decoder's positioned
	// errors.
	LoadState(d *snapshot.Decoder) error
}

// Section tags of the engine snapshot, written (and required on restore) in
// this order. The policy section comes last so the whole engine state —
// job table, machine run states, outcome — is available to LoadState
// validation. No section holds the event queue or the pending arrivals:
// restore derives both (see restoreInto).
const (
	tagSession = "SESS"
	tagJobs    = "JOBS"
	tagDone    = "DONE"
	tagMach    = "MACH"
	tagOutcome = "OUTC"
	tagPolicy  = "POLI"
)

// Snapshot freezes the session into w as a versioned, CRC-guarded binary
// snapshot (see internal/snapshot for the container format and DESIGN.md for
// the section layout). The session is observed, never mutated: it remains
// live and can keep feeding afterwards, so periodic checkpoints of a long
// stream are cheap and safe at any watermark between feeds.
//
// The policy must implement StatefulPolicy; RestoreOpts with a freshly
// constructed policy of the same configuration rebuilds a session whose
// future behavior — and final Outcome — is bit-identical to this one's.
//
// Snapshot builds the snapshot with AppendSnapshot and writes it to w in one
// Write call.
func (s *Session) Snapshot(w io.Writer) error {
	b, err := s.AppendSnapshot(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendSnapshot appends the snapshot Snapshot writes to dst, encoding every
// section straight into it, and returns the extended slice. SnapshotSize
// sizes the snapshot exactly before a byte is written, so dst grows at most
// once, by snapshot.Grow, and then with room for every job the job table has
// room for: a session presized by a SizeHint is captured into one buffer for
// its whole stream. A capture loop that passes the previous result back in
// (truncated to length 0) therefore snapshots with no allocation until the
// state outgrows it.
func (s *Session) AppendSnapshot(dst []byte) ([]byte, error) {
	size, want, err := s.SnapshotSize()
	if err != nil {
		return dst, err
	}
	out := snapshot.Grow(dst, size, want)
	at := len(out)
	out = out[:at+size]
	if err := s.SnapshotInto(out[at:]); err != nil {
		return dst, err
	}
	return out, nil
}

// SnapshotSize readies a capture and sizes it: it encodes the policy section
// into a scratch the session keeps (the one section whose size does not
// follow from counts), and returns the exact size of the snapshot the next
// SnapshotInto writes, and want, the size it would have with the job table
// full to its capacity — the room a capture buffer should leave for the rest
// of a hinted stream. The session must not be fed between the two calls.
func (s *Session) SnapshotSize() (size, want int, err error) {
	sp, err := s.stateful()
	if err != nil {
		return 0, 0, err
	}
	c := &s.core
	s.pol.Reset()
	s.pol.Str(sp.SnapshotTag())
	sp.SaveState(&s.pol)
	s.polSum = snapshot.Checksum(s.pol.Bytes())
	s.polFor = len(c.jobs) + 1
	size = s.snapshotSize() + len(s.pol.Bytes())
	want = size
	if n := len(c.jobs); n > 0 {
		// A job to come costs its record, conservation entry and outcome
		// slot, and at least one interval.
		ivs := max(1, (len(c.rec.Intervals())+n-1)/n)
		want += (cap(c.jobs) - n) * (jobRecord(len(c.mach)) + 8 + slotRecord + ivs*intervalRecord)
	}
	return size, want, nil
}

// SnapshotInto writes the snapshot the preceding SnapshotSize sized into dst,
// whose length must be that size, and nothing outside it: sessions of a
// fleet write their snapshots concurrently, each into its own region of one
// buffer (Shard.AppendSnapshot).
func (s *Session) SnapshotInto(dst []byte) error {
	if s.polFor != len(s.core.jobs)+1 {
		return fmt.Errorf("engine: SnapshotInto without a SnapshotSize since the last feed")
	}
	s.polFor = 0
	sw := snapshot.AppendWriter(dst[:0:len(dst)])
	if err := s.encode(sw); err != nil {
		return err
	}
	if out := sw.Bytes(); len(out) != len(dst) || &out[0] != &dst[0] {
		return fmt.Errorf("engine: snapshot of %d bytes does not fill its %d-byte region", len(out), len(dst))
	}
	return nil
}

// snapshotSize is the exact size of the snapshot encode writes, less the
// policy section's payload: every other section is a count plus fixed-size
// records, so its size follows from the job, machine and interval counts.
func (s *Session) snapshotSize() int {
	c := &s.core
	n, m := len(c.jobs), len(c.mach)
	size := snapshot.HeaderBytes + 7*snapshot.FrameBytes // six sections and the end
	size += 4 + 8 + 3*8                                  // SESS
	size += 8 + n*jobRecord(m)                           // JOBS
	size += 8 + 8*n                                      // DONE
	size += 4 + 5*8*m                                    // MACH
	size += 8 + len(c.rec.Intervals())*intervalRecord    // OUTC
	return size + 8 + n*slotRecord
}

// The fixed-size records of the JOBS and OUTC sections: a job (id, release,
// weight, deadline, one processing time per machine), an interval (job,
// machine, start, end, speed) and an outcome slot (state, decision time,
// machine).
const (
	intervalRecord = 8 + 4 + 3*8
	slotRecord     = 1 + 8 + 4
)

func jobRecord(machines int) int { return 4*8 + 8*machines }

// stateful returns the session's policy as a StatefulPolicy, failing when
// the session is closed or the policy cannot be snapshotted.
func (s *Session) stateful() (StatefulPolicy, error) {
	if s.closed {
		return nil, ErrClosed
	}
	sp, ok := s.core.pol.(StatefulPolicy)
	if !ok {
		return nil, fmt.Errorf("engine: policy %T does not implement StatefulPolicy; session cannot be snapshotted", s.core.pol)
	}
	return sp, nil
}

// encode writes the session's sections to sw and closes it, the policy
// section from the payload SnapshotSize encoded. The job table, the
// conservation vector and the outcome record are runs of fixed-size records,
// each encoded into a span reserved once (Encoder.Extend).
func (s *Session) encode(sw *snapshot.Writer) error {
	c := &s.core
	sw.Section(tagSession, func(e *snapshot.Encoder) {
		e.U32(uint32(len(c.mach)))
		e.U64(uint64(len(c.jobs)))
		e.F64(c.last)
		e.F64(0) // the slot of a retired AdvanceTo watermark
		e.I64(int64(c.seq))
	})
	sw.Section(tagJobs, func(e *snapshot.Encoder) {
		e.U64(uint64(len(c.jobs)))
		size := jobRecord(len(c.mach))
		b := e.Extend(len(c.jobs) * size)
		for k := range c.jobs {
			j := &c.jobs[k]
			r := b[k*size : (k+1)*size]
			le.PutUint64(r, uint64(j.ID))
			putF64(r[8:], j.Release)
			putF64(r[16:], j.Weight)
			putF64(r[24:], j.Deadline)
			for i, p := range j.Proc {
				putF64(r[32+8*i:], p)
			}
		}
	})
	sw.Section(tagDone, func(e *snapshot.Encoder) {
		e.U64(uint64(len(c.done)))
		b := e.Extend(8 * len(c.done))
		for k, d := range c.done {
			putF64(b[8*k:], d)
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
	sw.Section(tagOutcome, func(e *snapshot.Encoder) { snapshotOutcome(e, c) })
	sw.Frame(tagPolicy, s.pol.Bytes(), s.polSum)
	return sw.Close()
}

// le is the byte order of every snapshot field.
var le = binary.LittleEndian

// putF64 writes the IEEE-754 bit pattern of v, as Encoder.F64 does, and
// getF64 reads it back, as Decoder.F64 does.
func putF64(b []byte, v float64) { le.PutUint64(b, math.Float64bits(v)) }
func getF64(b []byte) float64    { return math.Float64frombits(le.Uint64(b)) }

// snapshotOutcome serializes the dense outcome record: the interval log
// followed by one (state, decision time, machine) triple per fed job in
// feed order. The dense form is already canonical — slot order is feed
// order — so identical sessions produce identical bytes with no sorting.
func snapshotOutcome(e *snapshot.Encoder, c *Core) {
	ivs := c.rec.Intervals()
	e.U64(uint64(len(ivs)))
	b := e.Extend(len(ivs) * intervalRecord)
	for k := range ivs {
		iv := &ivs[k]
		r := b[k*intervalRecord : (k+1)*intervalRecord]
		le.PutUint64(r, uint64(iv.Job))
		le.PutUint32(r[8:], uint32(iv.Machine))
		putF64(r[12:], iv.Start)
		putF64(r[20:], iv.End)
		putF64(r[28:], iv.Speed)
	}
	n := c.rec.Len()
	e.U64(uint64(n))
	b = e.Extend(n * slotRecord)
	for jk := 0; jk < n; jk++ {
		r := b[jk*slotRecord : (jk+1)*slotRecord]
		r[0] = c.rec.State(jk)
		putF64(r[1:], c.rec.When(jk))
		le.PutUint32(r[9:], uint32(c.rec.Machine(jk)))
	}
}

// RestoreOpts reconstructs a streaming session from a snapshot written by
// Session.Snapshot. newPolicy is called once with the snapshot's machine
// count and must return a freshly constructed policy configured exactly as
// the donor's was (same options; performance-only knobs like dispatch
// parallelism may differ) — the policy section's tag and option echoes are
// cross-checked and a mismatch fails loudly rather than resuming into a
// subtly different run.
//
// Every layer validates as it decodes: jobs replay the structural rules of
// Session.Feed (including release order and id uniqueness), machine run
// states are bounds-checked against the restored job table, and each
// section's byte count must be consumed exactly. What is still to come is
// derived rather than read (restoreInto): the pending arrivals and the
// event queue. A restored session continues precisely where the donor
// stopped: feeding the remaining stream and closing yields an Outcome
// bit-identical to an uninterrupted run's.
//
// Only performance options carry into the rebuilt session: opt.EventQueue
// selects the event-queue implementation the derived queue is built in (a
// snapshot taken under either restores under either), and opt.SizeHint
// presizes per-job storage for a stream of that many jobs when it exceeds
// the snapshot's job count (a resumed stream grows on into the room it had
// before the restart). Machines come from the snapshot itself; opt's value
// is ignored. r is read once into memory (snapshot.NewReader); a
// snapshot.InPlace reader is decoded where it lies, and the session keeps no
// reference to it.
func RestoreOpts(r io.Reader, opt Options, newPolicy func(machines int) (Policy, error)) (*Session, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}
	d, err := sr.Section(tagSession)
	if err != nil {
		return nil, err
	}
	machines := int(d.U32())
	njobs := d.U64()
	last := d.F64()
	floor := d.F64()
	coreSeq := d.I64()
	if err := d.Done(); err != nil {
		return nil, err
	}
	// The machine and job counts size the session before the sections that
	// hold their records are read, so each is checked against the bytes
	// left: a machine state and a job record need at least 40 bytes each.
	if machines <= 0 || machines > 1<<24 || machines > sr.Remaining()/40 {
		return nil, fmt.Errorf("snapshot: session declares %d machines", machines)
	}
	if coreSeq < 0 || coreSeq > math.MaxInt32 {
		return nil, fmt.Errorf("snapshot: session start-version counter %d out of range", coreSeq)
	}
	if njobs > math.MaxInt32 || njobs > uint64(sr.Remaining()/jobRecord(machines)) {
		return nil, fmt.Errorf("snapshot: session declares %d jobs", njobs)
	}
	if math.IsNaN(last) {
		return nil, fmt.Errorf("snapshot: session watermark %v", last)
	}
	if floor != 0 {
		return nil, fmt.Errorf("snapshot: session watermark floor %v: written by a build with Session.AdvanceTo, which this one does not have", floor)
	}

	pol, err := newPolicy(machines)
	if err != nil {
		return nil, err
	}
	sp, ok := pol.(StatefulPolicy)
	if !ok {
		pol.Close()
		return nil, fmt.Errorf("engine: policy %T does not implement StatefulPolicy; snapshot cannot be restored into it", pol)
	}
	s := &Session{}
	if err := s.core.init(pol, Options{
		Machines: machines, SizeHint: max(int(njobs), opt.SizeHint), EventQueue: opt.EventQueue,
	}); err != nil {
		pol.Close()
		return nil, err
	}
	c := &s.core
	c.seq = int32(coreSeq)
	c.last = last
	if err := restoreSections(sr, s, sp); err != nil {
		pol.Close()
		return nil, err
	}
	return s, nil
}

// restoreSections fills a pre-initialized session from the sections after
// SESS: restoreInto, or in tests the per-field reference decoder it is held
// to (decode_ref_test.go).
var restoreSections = restoreInto

// restoreInto fills the pre-initialized session from the remaining sections.
// The job table, the conservation vector and the outcome record are runs of
// fixed-size records, read the way encode writes them: once Count has
// bounded a run, it is taken as one span (Decoder.Span) and each field read
// at its fixed offset. A check on one record fails at the byte after it.
//
// The pending arrivals and the event queue are derived from the drain
// horizon H (Core.Drained): every event at or before H has been handled and
// none after it, so the jobs still to arrive are those released after H,
// and the live events are one completion per running machine (rebuilt by
// restoreQueue) plus whatever bookkeeping the policy scheduled past H,
// which its LoadState pushes again.
func restoreInto(sr *snapshot.Reader, s *Session, sp StatefulPolicy) error {
	c := &s.core
	machines := len(c.mach)
	horizon := c.Drained()

	d, err := sr.Section(tagJobs)
	if err != nil {
		return err
	}
	size := jobRecord(machines)
	n := d.Count(size)
	at := d.Offset()
	b := d.Span(n * size)
	// Every job's processing times share one array: a resumed session
	// allocates its job table in a few objects, not one per job. Count has
	// bounded n by the bytes in the section.
	procs := make([]float64, n*machines)
	lastRelease := math.Inf(-1)
	for k := 0; k < n; k++ {
		r := b[k*size : (k+1)*size : (k+1)*size]
		j := sched.Job{
			ID:       int(le.Uint64(r)),
			Release:  getF64(r[8:]),
			Weight:   getF64(r[16:]),
			Deadline: getF64(r[24:]),
			Proc:     procs[k*machines : (k+1)*machines : (k+1)*machines],
		}
		for i := range j.Proc {
			j.Proc[i] = getF64(r[32+8*i:])
		}
		// The job table must replay cleanly through the same structural
		// rules Feed enforces; a snapshot can only hold jobs Feed admitted.
		if verr := sched.ValidateJob(&j, machines, lastRelease); verr != nil {
			d.FailAt(at+(k+1)*size, "job %d of the snapshot is not feedable: %v", k, verr)
			return d.Err()
		}
		if j.Release > lastRelease {
			lastRelease = j.Release
		}
		if _, ok := c.ids.Add(j.ID); !ok {
			d.FailAt(at+(k+1)*size, "duplicate job id %d", j.ID)
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
	b = d.Span(8 * njobs)
	for k := 0; k < len(b); k += 8 {
		c.done = append(c.done, getF64(b[k:]))
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
	if err := restoreOutcome(d, c); err != nil {
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

// tagRetiredQueue is the event-queue section builds before this one wrote
// between MACH and OUTC.
const tagRetiredQueue = "EVTQ"

// outcomeSection opens the OUTC section. Where a snapshot from an older
// build has its EVTQ section instead, it refuses the snapshot by naming
// that format rather than by the tag it did not expect.
func outcomeSection(sr *snapshot.Reader) (*snapshot.Decoder, error) {
	tag, d, err := sr.Next()
	switch {
	case err == io.EOF:
		err = fmt.Errorf("snapshot: want section %q, stream already ended", tagOutcome)
	case err == nil && tag == tagRetiredQueue:
		err = fmt.Errorf("snapshot: an %s section: a snapshot from an older build, which wrote its event queue; this build derives the queue and cannot resume it", tag)
	case err == nil && tag != tagOutcome:
		err = fmt.Errorf("snapshot: want section %q, found %q", tagOutcome, tag)
	}
	return d, err
}

// restoreQueue queues the completion of every running machine, in RunSeq
// order — the order their Starts pushed them, so simultaneous completions
// tie as they did in the donor. A completion at or before the drain horizon
// would already have popped, so it marks a corrupt row. The completions of
// executions a rejection or preemption cut short are not rebuilt: popping
// them was a no-op.
func restoreQueue(c *Core, d *snapshot.Decoder) error {
	var run []int32
	for i := range c.mach {
		if !c.mach[i].Idle() {
			run = append(run, int32(i))
		}
	}
	slices.SortFunc(run, func(a, b int32) int {
		return cmp.Or(cmp.Compare(c.mach[a].RunSeq, c.mach[b].RunSeq), cmp.Compare(a, b))
	})
	horizon := c.Drained()
	for _, i := range run {
		m := &c.mach[i]
		if end := m.RunStart + m.RunVol/m.RunSpeed; !(end > horizon) {
			d.Failf("machine %d completes at %v, not after the drain horizon %v", i, end, horizon)
			return d.Err()
		}
		c.pushCompletion(int(i))
	}
	return nil
}

// WritePending writes the job a policy's pending index holds under id as
// its compact index, which ReadPending reads back.
func (c *Core) WritePending(e *snapshot.Encoder, id int) { e.U32(uint32(c.ids.Of(id))) }

// ReadPending reads a compact index WritePending wrote and returns it once
// the restored engine state agrees that the policy may hold that job
// pending on machine i, or in a pool of all machines when i < 0: the job
// is known, open, not running and no longer waiting to arrive, and for i ≥
// 0 it is dispatched to machine i. Otherwise it fails d and returns -1.
// LoadState runs after every engine section is restored, so the whole
// engine state is there to check against.
func (c *Core) ReadPending(d *snapshot.Decoder, i int) int {
	jk := int(d.U32())
	if d.Err() != nil {
		return -1
	}
	var fault string
	switch {
	case jk >= len(c.jobs):
		fault = fmt.Sprintf("job index %d of %d", jk, len(c.jobs))
	case c.rec.State(jk) != sched.JobOpen:
		fault = fmt.Sprintf("job %d, which is already decided", c.jobs[jk].ID)
	case c.running(jk):
		fault = fmt.Sprintf("job %d, which is running", c.jobs[jk].ID)
	case c.arriving(jk):
		fault = fmt.Sprintf("job %d, whose arrival is still pending", c.jobs[jk].ID)
	case i >= 0 && int(c.rec.Machine(jk)) != i:
		fault = fmt.Sprintf("job %d, dispatched to machine %d", c.jobs[jk].ID, c.rec.Machine(jk))
	default:
		return jk
	}
	if i < 0 {
		d.Failf("the pool holds %s", fault)
	} else {
		d.Failf("machine %d holds %s", i, fault)
	}
	return -1
}

// running reports whether job jk runs on some machine.
func (c *Core) running(jk int) bool {
	for i := range c.mach {
		if int(c.mach[i].Running) == jk {
			return true
		}
	}
	return false
}

// arriving reports whether job jk's arrival is pending.
func (c *Core) arriving(jk int) bool {
	_, ok := slices.BinarySearchFunc(c.arrivals(), int32(jk), c.arrivalCmp)
	return ok
}

// arrivalCmp orders pending arrivals as they pop: by release, then by
// compact index, which is feed order.
func (c *Core) arrivalCmp(a, b int32) int {
	if ra, rb := c.jobs[a].Release, c.jobs[b].Release; ra != rb {
		return cmp.Compare(ra, rb)
	}
	return cmp.Compare(a, b)
}

// SessionSnapshotter is a Feeder whose state can be captured into a region
// of a buffer it does not own, sized first and then written —
// engine.Session, every scheduler session of internal/core (which embed it)
// and the chaos stall wrapper implement it. Shard.AppendSnapshot requires it
// of each of its feeders, and holds no capture buffer of its own.
type SessionSnapshotter interface {
	Feeder
	SnapshotSize() (size, want int, err error)
	SnapshotInto(dst []byte) error
}

// Fleet snapshot tags: a fleet header followed by one nested session
// snapshot per shard, each a complete self-contained snapshot stream
// embedded as a section payload.
const (
	tagFleet = "FLET"
	tagShard = "SHRD"
)

// AppendSnapshot freezes the whole fleet, appending the fleet container to
// dst: the shard quiesces (pending slabs flush and every worker drains, so
// each session is at a consistent watermark), every session sizes its
// snapshot exactly (SnapshotSize, encoding its policy section into a small
// scratch), dst grows at most once, by snapshot.Grow, and every session then
// encodes straight into its own SHRD frame of dst (SnapshotInto). Both steps
// run concurrently, one goroutine per shard — safe because quiesced workers
// are parked on their empty work queues. Each byte of the fleet is written
// once, into its final place, and CRC'd once, by the session's own frame: no
// session keeps a capture buffer, and nothing is copied into dst afterwards.
// Feeding may resume after AppendSnapshot returns.
//
// The route function and slab sizing are not serialized (routes are code,
// and slab knobs are performance-only): RestoreFleet's caller reattaches the
// same route when rebuilding the Shard over the restored sessions, exactly
// as it supplied it to NewShardOpts. Restoring under a different route would
// break the per-shard release-order invariant and fail at the first feed.
func (sh *Shard) AppendSnapshot(dst []byte) ([]byte, error) {
	if err := sh.Quiesce(); err != nil {
		return dst, err
	}
	ss := make([]SessionSnapshotter, len(sh.feeders))
	for k, f := range sh.feeders {
		var ok bool
		if ss[k], ok = f.(SessionSnapshotter); !ok {
			return dst, fmt.Errorf("engine: shard %d feeder %T cannot be snapshotted", k, f)
		}
	}
	sizes, wants := make([]int, len(ss)), make([]int, len(ss))
	if err := eachShard(len(ss), func(k int) (err error) {
		sizes[k], wants[k], err = ss[k].SnapshotSize()
		return err
	}); err != nil {
		return dst, err
	}
	// The fleet header, FLET and end sections, then what a nesting caller
	// closes around the fleet (its frame's CRC and its own end section), so
	// that closing them never moves the buffer. Room to spare is what the
	// sessions expect to grow to.
	need := snapshot.HeaderBytes + snapshot.FrameBytes + 4 + snapshot.FrameBytes
	need += 4 + snapshot.FrameBytes
	want := need
	for k := range ss {
		need += snapshot.FrameBytes + sizes[k]
		want += snapshot.FrameBytes + wants[k]
	}
	sw := snapshot.AppendWriter(snapshot.Grow(dst, need, want))
	sw.Section(tagFleet, func(e *snapshot.Encoder) { e.U32(uint32(len(ss))) })
	sw.NestEach(tagShard, sizes, func(regions [][]byte) error {
		return eachShard(len(ss), func(k int) error { return ss[k].SnapshotInto(regions[k]) })
	})
	err := sw.Close()
	return sw.Bytes(), err
}

// eachShard runs f(k) for every shard k concurrently and returns the first
// error, naming its shard.
func eachShard(shards int, f func(k int) error) error {
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = f(k)
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: snapshotting shard %d: %w", k, err)
		}
	}
	return nil
}

// RestoreFleet walks a fleet snapshot written by Shard.AppendSnapshot, invoking
// restore once per shard with a reader positioned over that shard's complete
// nested session snapshot. The callback restores the session with the
// matching policy package's Restore (collecting it for the caller to rebuild
// a Shard via NewShardOpts with the original route); any callback error
// aborts the walk. It returns the shard count declared by the fleet header.
//
// The per-shard readers are snapshot.InPlace views of the fleet bytes, so
// restores through snapshot.NewReader walk them without copying (and when r
// is itself a snapshot.InPlace reader, the fleet is never copied at all).
func RestoreFleet(r io.Reader, restore func(shard int, r io.Reader) error) (int, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return 0, err
	}
	sr.Repeatable(tagShard) // one SHRD frame per shard is the format
	d, err := sr.Section(tagFleet)
	if err != nil {
		return 0, err
	}
	shards := int(d.U32())
	if err := d.Done(); err != nil {
		return 0, err
	}
	if shards <= 0 || shards > 1<<20 {
		return 0, fmt.Errorf("snapshot: fleet declares %d shards", shards)
	}
	for k := 0; k < shards; k++ {
		d, err := sr.Section(tagShard)
		if err != nil {
			return 0, fmt.Errorf("snapshot: shard %d of %d: %w", k, shards, err)
		}
		payload := d.Rest()
		if err := d.Done(); err != nil {
			return 0, err
		}
		if err := restore(k, snapshot.InPlace(payload)); err != nil {
			return 0, fmt.Errorf("snapshot: restoring shard %d of %d: %w", k, shards, err)
		}
	}
	return shards, sr.End()
}

// validateArrivalsOpen checks, once the outcome record is restored, that
// every job with a derived pending arrival is open and undispatched: its
// arrival is what will dispatch it.
func validateArrivalsOpen(c *Core, d *snapshot.Decoder) error {
	for _, jk := range c.arrivals() {
		if c.rec.State(int(jk)) != sched.JobOpen || c.rec.Machine(int(jk)) != sched.NoMachine {
			d.Failf("job %d has a pending arrival but is decided or dispatched", c.jobs[jk].ID)
			return d.Err()
		}
	}
	return nil
}

// restoreOutcome fills the dense session outcome record, resolving every id
// against the restored job table so later policy lookups can never index
// out of range. The single state byte per slot makes the old disjointness
// and over-accounting checks structural: a job cannot be both completed and
// rejected, and at most njobs decisions exist. Both runs are read as
// snapshotOutcome writes them, one span each.
func restoreOutcome(d *snapshot.Decoder, c *Core) error {
	njobs := len(c.jobs)
	n := d.Count(intervalRecord)
	at := d.Offset()
	b := d.Span(n * intervalRecord)
	c.rec.GrowIntervals(n)
	for k := 0; k < n; k++ {
		r := b[k*intervalRecord : (k+1)*intervalRecord : (k+1)*intervalRecord]
		iv := sched.Interval{
			Job:     int(le.Uint64(r)),
			Machine: int(int32(le.Uint32(r[8:]))),
			Start:   getF64(r[12:]),
			End:     getF64(r[20:]),
			Speed:   getF64(r[28:]),
		}
		if c.ids.Of(iv.Job) < 0 || iv.Machine < 0 || iv.Machine >= len(c.mach) {
			d.FailAt(at+(k+1)*intervalRecord, "interval %d references unknown job %d or machine %d", k, iv.Job, iv.Machine)
			return d.Err()
		}
		c.rec.AppendInterval(iv)
	}
	if slots := d.Count(slotRecord); slots != njobs {
		d.Failf("%d outcome slots for %d jobs", slots, njobs)
		return d.Err()
	}
	at = d.Offset()
	b = d.Span(njobs * slotRecord)
	for jk := 0; jk < njobs; jk++ {
		r := b[jk*slotRecord : (jk+1)*slotRecord : (jk+1)*slotRecord]
		st := r[0]
		when := getF64(r[1:])
		mach := int32(le.Uint32(r[9:]))
		end := at + (jk+1)*slotRecord
		switch st {
		case sched.JobOpen:
			// Open slots must carry the zero timestamp so re-snapshotting a
			// restored session reproduces the donor's bytes exactly.
			if when != 0 {
				d.FailAt(end, "open job %d carries decision time %v", c.jobs[jk].ID, when)
				return d.Err()
			}
		case sched.JobCompleted:
			c.rec.Complete(jk, when)
		case sched.JobRejected:
			c.rec.Reject(jk, when)
		default:
			d.FailAt(end, "job %d has unknown outcome state %d", c.jobs[jk].ID, st)
			return d.Err()
		}
		if mach != sched.NoMachine {
			if mach < 0 || int(mach) >= len(c.mach) {
				d.FailAt(end, "job %d assigned to unknown machine %d", c.jobs[jk].ID, mach)
				return d.Err()
			}
			c.rec.Assign(jk, int(mach))
		}
	}
	return nil
}
