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

// membersPath holds the members of TestLineageMembersPinned's run.
const membersPath = "testdata/lineage_members.json"

// pinnedMember is one line of membersPath: a lineage member and the CRC32-C
// of its file.
type pinnedMember struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	File string `json:"file"`
	CRC  uint32 `json:"crc"`
	Size int64  `json:"size"`
	Base uint64 `json:"base,omitempty"`
}

// TestLineageMembersPinned pins every member an uninterrupted checkpointed
// run writes, by its listing and the CRC of its file: periodic
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
	var members []pinnedMember
	for _, e := range l.Entries() {
		data, err := os.ReadFile(filepath.Join(filepath.Dir(cfg.CheckpointPath), e.File))
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, pinnedMember{e.Seq, e.Kind, e.File, snapshot.Checksum(data), e.Size, e.Base})
	}
	got, err := json.MarshalIndent(members, "", "  ")
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
