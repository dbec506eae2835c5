package engine_test

import (
	"bytes"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// Mutations FuzzSessionDecode applies to a snapshot before restoring it: none,
// one bit flipped in a section's payload, or a section's payload cut short.
// Either way the section is framed again, so its CRC passes and the bytes
// reach the section decoders.
const (
	decodeClean = iota
	decodeFlip
	decodeTruncate
	decodeModes
)

// restoreSession restores snap as registry policy name with the options
// fleetSession starts it with.
func restoreSession(name string, dual bool, snap []byte) (*engine.Session, error) {
	switch {
	case dual && name == "flowtime":
		s, err := flowtime.Restore(bytes.NewReader(snap), flowtime.Options{Epsilon: 0.2, TrackDual: true})
		if err != nil {
			return nil, err
		}
		return s.Session, nil
	case dual && name == "speedscale":
		s, err := speedscale.Restore(bytes.NewReader(snap), speedscale.Options{Epsilon: 0.2, Alpha: 2, TrackDual: true})
		if err != nil {
			return nil, err
		}
		return s.Session, nil
	}
	entry, _ := policy.Lookup(name)
	return entry.Restore(bytes.NewReader(snap), policy.Params{Epsilon: 0.2, Alpha: 2})
}

// section is one frame of a snapshot: its tag and a copy of its payload.
type section struct {
	tag     string
	payload []byte
}

// sections splits a snapshot into its frames.
func sections(t *testing.T, snap []byte) (out []section) {
	t.Helper()
	sr, err := snapshot.NewReader(snapshot.InPlace(snap))
	if err != nil {
		t.Fatal(err)
	}
	for {
		tag, d, err := sr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, section{tag, append([]byte(nil), d.Rest()...)})
	}
}

// reframe rewrites a session snapshot with the payload of its section number
// sect (0 is SESS, 3 is MACH, 4 is OUTC, 5 is POLI; taken modulo the section
// count) passed through edit, and every frame sealed afresh.
func reframe(t *testing.T, snap []byte, sect uint8, edit func(payload []byte) []byte) []byte {
	t.Helper()
	secs := sections(t, snap)
	k := int(sect) % len(secs)
	secs[k].payload = edit(secs[k].payload)
	sw := snapshot.AppendWriter(nil)
	for _, s := range secs {
		sw.Section(s.tag, func(e *snapshot.Encoder) { e.Raw(s.payload) })
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return sw.Bytes()
}

// decodeCase snapshots a session of registry policy pol%5 (duals tracked
// when dual is set and the policy has them) on encodeMachines[mi%3]
// machines, fed the first stop%(n+1) jobs of a 1+n%300-job instance drawn
// from seed, and mutates it by mode%3: bit bit%8 of byte at of section sect
// flipped, or that section cut to at bytes (at < 0 counts from the end of
// the payload). It restores the result through restoreInto and through the
// per-field reference. Both must succeed and snapshot to the same bytes —
// the donor's, when the snapshot is clean — or both must fail with the same
// error text, which it returns.
func decodeCase(t *testing.T, seed int64, pol, mi uint8, n, stop uint16, dual bool, mode, sect uint8, at int32, bit uint8) error {
	t.Helper()
	name := policy.Names()[int(pol)%len(policy.Names())]
	m := encodeMachines[int(mi)%len(encodeMachines)]
	cfg := workload.DefaultConfig(1+int(n)%300, m, seed)
	cfg.Load = 1.3
	if seed%2 != 0 {
		cfg.Sizes = workload.SizePareto
	}
	cfg.Weighted = seed%3 != 0
	jobs := workload.Random(cfg).Jobs
	jobs = jobs[:int(stop)%(len(jobs)+1)]
	if seed < 0 {
		// Releases floored to multiples of 10: jobs tie, and several
		// arrivals pend at the cut.
		for k := range jobs {
			jobs[k].Release = 10 * math.Floor(jobs[k].Release/10)
		}
	}
	donor := fleetSession(t, name, m, dual)
	defer donor.Close()
	if err := donor.FeedBatch(jobs); err != nil {
		t.Fatal(err)
	}
	clean, err := donor.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	// pos maps at onto the payload's l bytes (l+1 cut points when cutting).
	pos := func(l, points int) int {
		v := int(at)
		if v < 0 {
			v += l
		}
		return (v%points + points) % points
	}
	snap := clean
	switch int(mode) % decodeModes {
	case decodeFlip:
		snap = reframe(t, clean, sect, func(p []byte) []byte {
			if len(p) > 0 {
				p[pos(len(p), len(p))] ^= 1 << (bit % 8)
			}
			return p
		})
	case decodeTruncate:
		snap = reframe(t, clean, sect, func(p []byte) []byte { return p[:pos(len(p), len(p)+1)] })
	}

	restore := func() (*engine.Session, error) { return restoreSession(name, dual, snap) }
	got, gerr := restore()
	want, werr := engine.RestorePerField(restore)
	// The restored sessions are compared, not drained: a mutated snapshot
	// that passes every check can still describe a run that never ends.
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s, dual %v, m=%d, %d jobs, mode %d: restore error %v, per-field reference %v", name, dual, m, len(jobs), mode%decodeModes, gerr, werr)
	}
	if gerr != nil {
		return gerr
	}
	gb, err := got.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s, dual %v, m=%d, %d jobs, mode %d: restored session snapshots to %d bytes, the per-field reference's to %d, and they differ",
			name, dual, m, len(jobs), mode%decodeModes, len(gb), len(wb))
	}
	if int(mode)%decodeModes == decodeClean {
		// The engine's sections come back as the donor wrote them. The
		// policy section need not: wsrpt and the dual trackers pad per-job
		// state the donor grows lazily to the whole job table on load.
		gs, cs := sections(t, gb), sections(t, clean)
		for k := range cs {
			if cs[k].tag != "POLI" && !bytes.Equal(gs[k].payload, cs[k].payload) {
				t.Fatalf("%s, dual %v, m=%d, %d jobs: restored session's %s section differs from the donor's", name, dual, m, len(jobs), cs[k].tag)
			}
		}
	}
	return nil
}

// decodeSeed is one FuzzSessionDecode input.
type decodeSeed struct {
	seed             int64
	pol, mi          uint8
	n, stop          uint16
	dual             bool
	mode, sect       uint8
	at               int32
	bit              uint8
	wantErrSubstring string // what TestSessionDecodeSeedsCover requires the error to say; "" for a restore
}

// decodeSeeds cross every registry policy, and flowtime and speedscale with
// duals, with a clean snapshot and with mutations aimed at each record run:
// a processing time's sign bit in JOBS, the count in DONE, the first
// interval's job id, the last slot's state byte and the section's last byte
// cut off in OUTC, the low bit of the last job's slot state, which then
// records decided a job whose arrival restore derives as pending (the last
// job fed is released after the drain horizon), and bit 62 of machine 0's
// running job index in MACH; then come runSeeds.
func decodeSeeds() (seeds []decodeSeed) {
	var k int64
	for pol, name := range policy.Names() {
		for _, dual := range []bool{false, true} {
			if dual && name != "flowtime" && name != "speedscale" {
				continue
			}
			k++
			base := decodeSeed{seed: k, pol: uint8(pol), mi: uint8(k % 3), n: 240, stop: 150, dual: dual}
			add := func(mode, sect uint8, at int32, bit uint8, want string) {
				s := base
				s.mode, s.sect, s.at, s.bit, s.wantErrSubstring = mode, sect, at, bit, want
				seeds = append(seeds, s)
			}
			add(decodeClean, 0, 0, 0, "")
			add(decodeFlip, 1, 8+32+7, 7, "not feedable")
			add(decodeFlip, 2, 0, 1, "conservation entries")
			add(decodeTruncate, 4, -1, 0, "exceeds")
			add(decodeFlip, 4, 8+7, 6, "unknown job")
			add(decodeFlip, 4, -13, 2, "unknown outcome state")
			add(decodeFlip, 4, -13, 0, "has a pending arrival")
			add(decodeFlip, 3, 4+7, 6, "machine 0 runs unknown job index")
		}
	}
	return append(seeds, runSeeds()...)
}

// runSeeds flip one bit of an index a run names a job by, in a policy's
// pending index (POLI), so that it names a job unknown, repeated or out of
// key order, decided, dispatched to another machine, running, or still
// waiting to arrive; and one bit of a running machine's row (MACH), from
// which restore queues its completion again: so that the completion falls
// at or before the drain horizon, the run's start version exceeds the
// session counter, or its speed is negative. Each is a decodeSeeds base
// (seed k, k%3 machines, 150 of 240 jobs fed).
//
// They replace the stale-key seeds, which flipped a processing time in
// JOBS under a job a policy held, so that the key the index had copied
// disagreed with its row — once a restore that passed every check and then
// drained without end. A snapshot no longer copies keys: the row is the
// key, so that state cannot be written. Likewise the seeds that mutated the
// EVTQ section — a queued event naming an unknown job or machine, a pending
// arrival naming an unknown job, repeated or out of (release, index) order,
// or naming a job the pool holds — are retired: no section holds the queue
// or the arrivals any more (restore derives both from the drain horizon),
// so none of those states can be written.
func runSeeds() []decodeSeed {
	pol := func(name string) uint8 { return uint8(slices.Index(policy.Names(), name)) }
	poli := func(seed int64, name string, at int32, bit uint8, want string) decodeSeed {
		return decodeSeed{seed: seed, pol: pol(name), mi: uint8(seed % 3), n: 240, stop: 150,
			mode: decodeFlip, sect: 5, at: at, bit: bit, wantErrSubstring: want}
	}
	mach := func(seed int64, name string, at int32, bit uint8, want string) decodeSeed {
		s := poli(seed, name, at, bit, want)
		s.sect = 3
		return s
	}
	return []decodeSeed{
		poli(1, "flowtime", 150, 4, "machine 0 holds job index 157 of 150"),
		poli(1, "flowtime", 154, 1, "flat index element 2 repeats or precedes element 1"),
		poli(1, "flowtime", 94, 1, "machine 0 holds job 0, which is already decided"),
		poli(1, "flowtime", 150, 0, "machine 0 holds job 140, dispatched to machine 2"),
		poli(1, "flowtime", 150, 1, "machine 0 holds job 143, which is running"),
		poli(1, "flowtime", 154, 2, "machine 0 holds job 149, whose arrival is still pending"),
		poli(3, "wflow", 132, 2, "machine 0 holds job index 3818770442 of 150"),
		poli(3, "wflow", 160, 1, "flat index element 1 repeats or precedes element 0"),
		poli(3, "wflow", 104, 0, "which is already decided"),
		poli(3, "wflow", 164, 2, "which is running"),
		poli(3, "wflow", 300, 2, "whose arrival is still pending"),
		poli(4, "speedscale", 86, 3, "machine 0 pending list repeats or leaves density order"),
		poli(4, "speedscale", 90, 4, "machine 0 holds job 132, dispatched to machine 2"),
		poli(6, "srpt", 141, 1, "flat index element 1 repeats or precedes element 0"),
		poli(6, "srpt", 91, 2, "machine 0 holds job 25, which is already decided"),
		poli(7, "wsrpt", 2488, 3, "the pool holds job index 897639085 of 150"),
		poli(7, "wsrpt", 89, 7, "flat index element 43 repeats or precedes element 42"),
		poli(7, "wsrpt", 2488, 0, "the pool holds job 0, which is already decided"),
		poli(7, "wsrpt", 2516, 0, "the pool holds job 136, which is running"),
		poli(7, "wsrpt", 91, 7, "pool holds job 3 with remaining fraction"),
		// Machine 0's RunVol, sign bit: its completion moves before its start.
		mach(1, "flowtime", 4+24+7, 7, "machine 0 completes at"),
		mach(3, "wflow", 4+24+7, 7, "machine 0 completes at"),
		mach(6, "srpt", 4+24+7, 7, "machine 0 completes at"),
		// Machine 0's RunSeq, bit 40; then its RunSpeed's sign bit.
		mach(7, "wsrpt", 4+8+5, 0, "above the session counter"),
		mach(4, "speedscale", 4+32+7, 7, "running at speed"),
	}
}

// FuzzSessionDecode holds restoreInto's bulk record-run decode to the
// per-field reference decoder: over clean, bit-flipped and truncated
// snapshots of sessions of every registry policy (flowtime and speedscale
// also with duals), both restore to sessions that snapshot to the same
// bytes, or both fail with the same error text.
func FuzzSessionDecode(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s.seed, s.pol, s.mi, s.n, s.stop, s.dual, s.mode, s.sect, s.at, s.bit)
	}
	f.Fuzz(func(t *testing.T, seed int64, pol, mi uint8, n, stop uint16, dual bool, mode, sect uint8, at int32, bit uint8) {
		decodeCase(t, seed, pol, mi, n, stop, dual, mode, sect, at, bit)
	})
}

// TestSessionDecodeSeedsCover pins that FuzzSessionDecode's seed corpus
// reaches the checks inside each record run, where the bulk decode positions
// its own errors, that every run seed is refused by the check it aims at,
// and that every clean seed restores.
func TestSessionDecodeSeedsCover(t *testing.T) {
	for _, s := range decodeSeeds() {
		err := decodeCase(t, s.seed, s.pol, s.mi, s.n, s.stop, s.dual, s.mode, s.sect, s.at, s.bit)
		name := policy.Names()[s.pol]
		switch {
		case s.wantErrSubstring == "" && err != nil:
			t.Errorf("%s, dual %v: clean snapshot fails to restore: %v", name, s.dual, err)
		case s.wantErrSubstring != "" && (err == nil || !strings.Contains(err.Error(), s.wantErrSubstring)):
			t.Errorf("%s, dual %v, mode %d in section %d: error %v, want one saying %q", name, s.dual, s.mode, s.sect, err, s.wantErrSubstring)
		}
	}
}
