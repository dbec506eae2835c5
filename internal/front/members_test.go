package front

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
	"repro/internal/snapshot"
)

var updateMembers = flag.Bool("update-members", false, "rewrite testdata/lineage_members.json from this run")

// membersPath holds the manifest entries of TestLineageMembersPinned's run.
const membersPath = "testdata/lineage_members.json"

// TestLineageMembersPinned pins every member an uninterrupted checkpointed
// run writes, by the CRC and size the manifest records for it: periodic
// fulls and deltas on two shards, the full pair that brackets a resize to
// three, more periodic members, and the drain's final full. The capture
// buffers, the delta base and the self-check may change hands however they
// like; the bytes on disk may not.
func TestLineageMembersPinned(t *testing.T) {
	cfg := testConfig(4, 2)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "front.ck")
	cfg.CheckpointEvery = 150
	cfg.CheckpointDeltas = 3
	cfg.CheckpointKeep = 1000 // keep every generation, so every member is listed
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		phase := map[int][]sched.Job{}
		for tenant := 1; tenant <= 3; tenant++ {
			phase[tenant] = shiftJobs(genJobs(uint64(100*p+tenant), 400, 4), p*10000, float64(p)*300)
		}
		feedInProcess(t, s, phase)
		if p == 0 {
			if err := s.Resize(3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	l, err := snapshot.OpenLineage(cfg.CheckpointPath, snapshot.LineageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(l.Entries(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateMembers {
		if err := os.WriteFile(membersPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(membersPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("lineage members differ from %s:\n%s", membersPath, got)
	}
}
