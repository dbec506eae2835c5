package front

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// mergedPrefix returns how many jobs of tenant streams a and b (tenants 0
// and 9) the sequencer has merged once n jobs are fed: it walks the same
// (release, tenant) order the merge pops, ties going to the lower tenant.
func mergedPrefix(a, b []sched.Job, n int) (na, nb int) {
	for na+nb < n {
		if na < len(a) && (nb >= len(b) || a[na].Release <= b[nb].Release) {
			na++
		} else {
			nb++
		}
	}
	return na, nb
}

// checkpointingRun feeds the TestCheckpointResume fixture's first 200 merged
// jobs into a server checkpointing every 64 fed jobs with two deltas between
// fulls, drains it, and returns the server and its checkpoint base path. The
// lineage then holds a full, two deltas and the drain's full.
func checkpointingRun(t *testing.T, reg *obs.Registry) (*Server, string) {
	t.Helper()
	machines := 2
	a, b := genJobs(11, 200, machines), genJobs(99, 180, machines)
	cfg := testConfig(machines, 2)
	cfg.AwaitTenants = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "front.snap")
	cfg.CheckpointEvery = 64
	cfg.CheckpointDeltas = 2
	cfg.Obs = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := mergedPrefix(a, b, 200)
	feedInProcess(t, s, map[int][]sched.Job{0: a[:na], 9: b[:nb]})
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	return s, cfg.CheckpointPath
}

// TestCheckpointBytesPinned pins the on-disk format byte for byte: the
// SHA-256 of every lineage member — fulls and deltas — must equal the
// digests recorded when snapshots stopped writing the event queue and the
// pending arrivals (no EVTQ section: restore derives both from the drain
// horizon), so any change to how checkpoints are built must leave what they
// are unchanged.
func TestCheckpointBytesPinned(t *testing.T) {
	want := map[string]string{
		"0.full":  "88d0e499c5d56d0a26f6a8d1dd8295081cd72c1474980eb4748ca885fbc8280e",
		"1.delta": "f399ed5cc8f8d025bc8a107bedf0b7b7aa81b2828aaea7b77e331b1d7b1f45dc",
		"2.delta": "8f2a9d513afffa327c3fca9c365f511e89b6709d4e051aa293bd9d54e9fc5b74",
		"3.full":  "d8cbc82a5b2d9235cb7e19e2754f0b4a250ef540589e052915973ef74fb764a7",
	}
	_, path := checkpointingRun(t, nil)
	members, err := filepath.Glob(path + ".*.*")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != len(want) {
		t.Fatalf("lineage holds %v, want members %v", members, want)
	}
	for suffix, digest := range want {
		data, err := os.ReadFile(path + "." + suffix)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("member %s: sha256 %s, want %s", suffix, got, digest)
		}
	}
}

// TestCheckpointTelemetrySplit pins the checkpoint layer's two halves: after
// a drained checkpointing run, capture and persist each timed every
// checkpoint, and together they fit inside the total.
func TestCheckpointTelemetrySplit(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := checkpointingRun(t, reg)
	n := uint64(s.Stats().Checkpoints)
	total := reg.Histogram("front_checkpoint_ns").Snapshot()
	capture := reg.Histogram("front_checkpoint_capture_ns").Snapshot()
	persist := reg.Histogram("front_checkpoint_persist_ns").Snapshot()
	if n != 4 || total.Count != n || capture.Count != n || persist.Count != n {
		t.Fatalf("checkpoints %d; timed: total %d, capture %d, persist %d", n, total.Count, capture.Count, persist.Count)
	}
	if capture.Sum <= 0 || persist.Sum <= 0 || capture.Sum+persist.Sum > total.Sum {
		t.Fatalf("capture %v ns + persist %v ns against a total of %v ns", capture.Sum, persist.Sum, total.Sum)
	}
}

// TestResumeTelemetrySplit pins the resume split: a server resumed from a
// checkpointed run sets how long recovering the lineage and restoring from
// its payload took as two gauges, and prints both in its "resumed from" line.
func TestResumeTelemetrySplit(t *testing.T) {
	const machines = 2
	a, b := genJobs(11, 200, machines), genJobs(99, 180, machines)
	cfg := testConfig(machines, 2)
	cfg.AwaitTenants = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "front.ck")
	cfg.CheckpointEvery = 64
	cfg.CheckpointDeltas = 2
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Drain() // lets the killed server's parked sequencer exit
	na, nb := mergedPrefix(a, b, 200)
	feedInProcess(t, first, map[int][]sched.Job{0: a[:na], 9: b[:nb]})

	reg := obs.NewRegistry()
	resume := cfg.CheckpointPath
	cfg.Obs, cfg.CheckpointPath = reg, ""
	var logged bytes.Buffer
	second, err := Open(cfg, resume, log.New(&logged, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Drain()
	for _, name := range []string{"lineage_recover_ns", "front_restore_ns"} {
		if v := reg.Gauge(name).Value(); !(v > 0) {
			t.Errorf("%s = %v after a resume, want a positive duration", name, v)
		}
	}
	if line := logged.String(); !strings.Contains(line, "resumed from") || !strings.Contains(line, "(recover ") || !strings.Contains(line, ", restore ") {
		t.Errorf("resume logged %q, want both durations on its resumed-from line", line)
	}
}

// TestResumeChainsDeltaToRecovered pins that a server resumed onto the
// lineage it goes on writing keeps the chain going: killed after a full and
// a delta, resumed, killed again after one periodic checkpoint, and resumed
// once more, the server replays into the straight-through report byte for
// byte, and the checkpoint written after the first restart is a delta on
// the recovered seq, not a full.
func TestResumeChainsDeltaToRecovered(t *testing.T) {
	const machines = 2
	a, b := genJobs(11, 600, machines), genJobs(99, 560, machines)
	all := map[int][]sched.Job{0: a, 9: b}
	prefix := func(n int) map[int][]sched.Job {
		na, nb := mergedPrefix(a, b, n)
		return map[int][]sched.Job{0: a[:na], 9: b[:nb]}
	}
	cfg := testConfig(machines, 2)
	cfg.AwaitTenants = 2
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, ref, all)
	want := drainJSON(t, ref)

	cfg.CheckpointPath = filepath.Join(t.TempDir(), "front.ck")
	cfg.CheckpointEvery = 100
	cfg.CheckpointDeltas = 4
	lg := log.New(io.Discard, "", 0)
	// A killed server's sequencer parks; draining it after the test's checks
	// lets it exit.
	first, err := Open(cfg, "", lg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Drain()
	feedInProcess(t, first, prefix(250)) // checkpoints 0 (full) and 1 (delta)
	second, err := Open(cfg, cfg.CheckpointPath, lg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Drain()
	feedInProcess(t, second, prefix(380)) // 250 dups, then checkpoint 2 at the 100th new job
	if n := second.Stats().Checkpoints; n != 1 {
		t.Fatalf("the resumed server wrote %d checkpoints, want 1", n)
	}
	l, err := snapshot.OpenLineage(cfg.CheckpointPath, snapshot.LineageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := l.Entries()
	if len(entries) != 3 || entries[2].Kind != "delta" || entries[2].Base != 1 {
		t.Fatalf("lineage after one checkpoint past a restart: %+v; want its seq 2 a delta on the recovered seq 1", entries)
	}
	third, err := Open(cfg, cfg.CheckpointPath, lg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, third, all)
	if got := drainJSON(t, third); !bytes.Equal(got, want) {
		t.Fatalf("report after two restarts diverged from the uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestRefusesHeapLayoutCheckpoint: testdata/heaplayout.ck is the lineage
// (one member, heaplayout.ck.2.full) that TestCheckpointResume's checkpointing
// run left mid-stream when built from a tree whose event heap still held the
// pending arrivals and whose EVTQ sections were the raw heap array. Its
// sessions hold arrivals inside that layout, one section out of pop order.
// A snapshot is a process-restart artifact, not an archive: restoring it must
// fail with an error that names the older format, not misread it.
func TestRefusesHeapLayoutCheckpoint(t *testing.T) {
	ck := recoverFixture(t, "heaplayout.ck", 2)
	if arrivals, unsorted := heapLayoutQueues(t, ck); arrivals == 0 || unsorted == 0 {
		t.Fatalf("fixture holds %d pending arrivals and %d event sections out of pop order; want some of each", arrivals, unsorted)
	}
	refuseOlderFormat(t, ck)
}

// TestRefusesQueueSectionCheckpoint: testdata/evtq.ck is a lineage (one
// member, evtq.ck.1.full) written by a build that kept pending arrivals out
// of its event heap but still wrote each session's queue and arrival run
// as an EVTQ section. This build derives both, and refuses that format by
// name too.
func TestRefusesQueueSectionCheckpoint(t *testing.T) {
	ck := recoverFixture(t, "evtq.ck", 1)
	if arrivals, unsorted := heapLayoutQueues(t, ck); arrivals != 0 || unsorted != 0 {
		t.Fatalf("fixture holds %d queued arrivals and %d event sections out of pop order; want neither", arrivals, unsorted)
	}
	refuseOlderFormat(t, ck)
}

// recoverFixture recovers the lineage testdata/<name>, whose one member is
// its full number seq.
func recoverFixture(t *testing.T, name string, seq int) []byte {
	t.Helper()
	member := fmt.Sprintf("%s.%d.full", name, seq)
	data, err := os.ReadFile(filepath.Join("testdata", member))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, member), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, _, err := snapshot.RecoverLineage(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// refuseOlderFormat requires restoring the front checkpoint ck to fail with
// an error naming the EVTQ format of older builds.
func refuseOlderFormat(t *testing.T, ck []byte) {
	t.Helper()
	cfg := testConfig(2, 2)
	cfg.AwaitTenants = 2
	s, err := Restore(cfg, bytes.NewReader(ck))
	if err == nil {
		s.Drain()
		t.Fatal("a checkpoint in an older format restored")
	}
	if !strings.Contains(err.Error(), "an EVTQ section: a snapshot from an older build") {
		t.Fatalf("refused with %q, want an error naming the older format", err)
	}
}

// heapLayoutQueues walks the EVTQ section of every session in a front
// checkpoint and counts the pending arrivals and the sections whose events
// are not in (Time, ord) order.
func heapLayoutQueues(t *testing.T, ck []byte) (arrivals, unsorted int) {
	t.Helper()
	section := func(r io.Reader, want string) *snapshot.Decoder {
		sr, err := snapshot.NewReader(r)
		if err != nil {
			t.Fatal(err)
		}
		for {
			tag, d, err := sr.Next()
			if err != nil {
				t.Fatalf("no %s section: %v", want, err)
			}
			if tag == want {
				return d
			}
		}
	}
	fleet := section(snapshot.InPlace(ck), tagFleet).Rest()
	_, err := engine.RestoreFleet(snapshot.InPlace(fleet), func(_ int, r io.Reader) error {
		d := section(r, "EVTQ")
		d.U64()
		prevT, prevOrd := math.Inf(-1), uint64(0)
		sorted := true
		for n := d.Count(28); n > 0; n-- {
			tm, ord := d.F64(), d.U64()
			d.U32()
			d.U32()
			d.U32()
			if ord>>56 == 2 {
				arrivals++
			}
			if tm < prevT || tm == prevT && ord < prevOrd {
				sorted = false
			}
			prevT, prevOrd = tm, ord
		}
		if !sorted {
			unsorted++
		}
		return d.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return arrivals, unsorted
}
