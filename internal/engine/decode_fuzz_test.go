package engine_test

import (
	"bytes"
	"io"
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
// sect (0 is SESS, 5 is OUTC, 6 is POLI; taken modulo the section count)
// passed through edit, and every frame sealed afresh.
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
// cut off in OUTC, and the low bit of the first event's time in EVTQ — the
// pending arrival of the last job fed, which then no longer falls at its
// job's release — and of that job's slot state, which then records it
// decided; then come staleKeySeeds.
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
			add(decodeTruncate, 5, -1, 0, "exceeds")
			add(decodeFlip, 5, 8+7, 6, "unknown job")
			add(decodeFlip, 5, -13, 2, "unknown outcome state")
			add(decodeFlip, 4, 16, 0, "its release is")
			add(decodeFlip, 5, -13, 0, "has a pending arrival")
		}
	}
	return append(seeds, staleKeySeeds()...)
}

// staleKeySeeds flip a mantissa bit of p[0] in JOBS (m = 1, so a job record
// is 40 bytes after the 8-byte count) under a job the policy still holds:
// the job stays feedable, but its restored key — or, for wsrpt, the cached
// min-proc its key is made of — no longer matches its row. The wflow seed
// is an input that once restored on both decoders, after which Close grew
// the interval log past 1.2 GB: wflow's Delete rebuilds a job's key from
// its row and never found the stale one. Restore now refuses it, so no
// session exists to drain.
func staleKeySeeds() []decodeSeed {
	pol := func(name string) uint8 { return uint8(slices.Index(policy.Names(), name)) }
	flip := func(job int32) int32 { return 8 + job*40 + 32 + 3 }
	return []decodeSeed{
		{seed: 5, pol: pol("wflow"), n: 298, stop: 89, mode: decodeFlip, sect: 1, at: flip(87), bit: 7,
			wantErrSubstring: "machine 0 density tree holds job 87 under key"},
		{seed: 5, pol: pol("flowtime"), n: 240, stop: 150, mode: decodeFlip, sect: 1, at: flip(148), bit: 0,
			wantErrSubstring: "machine 0 pending tree holds job 148 under key"},
		{seed: 5, pol: pol("srpt"), n: 240, stop: 150, mode: decodeFlip, sect: 1, at: flip(148), bit: 7,
			wantErrSubstring: "remaining volume 7.229273210800316 beyond its processing time"},
		{seed: 5, pol: pol("wsrpt"), n: 240, stop: 150, mode: decodeFlip, sect: 1, at: flip(148), bit: 0,
			wantErrSubstring: "pool holds a job without usable dense state"},
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
// its own errors, that every stale-key seed is refused by the policy's key
// check, and that every clean seed restores.
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
