package front

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"

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
// digests recorded when the capture path still encoded through an
// intermediate buffer per nesting level, so any change to how checkpoints
// are built must leave what they are unchanged.
func TestCheckpointBytesPinned(t *testing.T) {
	want := map[string]string{
		"0.full":  "1ae2e44983c9f311937aff77edaa54569e958f47ed2b6a1cd0127426941cf352",
		"1.delta": "87b555276795a8584bc376389d7c5e2337d9554509c19f2fe5f438112199fb04",
		"2.delta": "406fb208e1684f417c2f39379d5fa667d433e2e2170aa13b9d45e6e4bfa3f3f3",
		"3.full":  "c53f5fcf6f106cb32b2eb7ac5b275925e63e36ae96077a66d3949ac3e1edab3a",
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
