package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// payloadN builds a distinguishable container whose JOBS leaf grows with n —
// the shape of a real checkpoint stream (append-mostly state).
func payloadN(t *testing.T, n int) []byte {
	t.Helper()
	body := bytes.Repeat([]byte{byte(n)}, 64)
	jobs := bytes.Repeat([]byte{0x4A}, 50000+1000*n)
	return buildContainer(t, sec("SESS", body), sec("JOBS", jobs))
}

func openL(t *testing.T, path string, opt LineageOptions) *Lineage {
	t.Helper()
	l, err := OpenLineage(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLineageWriteRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 3})
	var last []byte
	for i := 0; i < 8; i++ {
		last = payloadN(t, i)
		e, err := l.Write(last, false)
		if err != nil {
			t.Fatal(err)
		}
		wantKind := "delta"
		if i == 0 || i == 4 { // first ever, then every 3 deltas
			wantKind = "full"
		}
		if e.Kind != wantKind {
			t.Fatalf("write %d: kind %s, want %s", i, e.Kind, wantKind)
		}
	}
	got, info, err := RecoverLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, last) {
		t.Fatal("recovered payload differs from the last written")
	}
	if info.FellBack || info.Dropped != 0 || info.Applied != 3 {
		t.Fatalf("clean recover info = %+v", info)
	}
}

func TestLineageDeltaBytesSmall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 100})
	full, err := l.Write(payloadN(t, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := l.Write(payloadN(t, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Kind != "delta" {
		t.Fatalf("second write kind = %s", delta.Kind)
	}
	if delta.Size*5 > full.Size {
		t.Fatalf("delta of 1 KiB churn = %d bytes vs full %d — not even 5× smaller", delta.Size, full.Size)
	}
}

// corrupt flips one byte in the named lineage member.
func corruptMember(t *testing.T, l *Lineage, e LineageEntry, off int64) {
	t.Helper()
	p := l.memberPath(e)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[off%int64(len(data))] ^= 0x01
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLineageTornNewestFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 10})
	var payloads [][]byte
	for i := 0; i < 4; i++ {
		payloads = append(payloads, payloadN(t, i))
		if _, err := l.Write(payloads[i], false); err != nil {
			t.Fatal(err)
		}
	}
	entries := l.Entries()

	t.Run("truncated newest delta", func(t *testing.T) {
		newest := entries[len(entries)-1]
		data, _ := os.ReadFile(l.memberPath(newest))
		os.WriteFile(l.memberPath(newest), data[:len(data)/2], 0o644)
		got, info, err := RecoverLineage(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[2]) {
			t.Fatal("did not fall back to the predecessor checkpoint")
		}
		if !info.FellBack || info.Dropped != 1 || info.Seq != entries[2].Seq {
			t.Fatalf("fallback info = %+v", info)
		}
		os.WriteFile(l.memberPath(newest), data, 0o644) // restore for the next subtest
	})

	t.Run("bit flip mid-chain drops the tail", func(t *testing.T) {
		corruptMember(t, l, entries[2], 33)
		got, info, err := RecoverLineage(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[1]) {
			t.Fatal("chain did not stop at the corrupt delta's predecessor")
		}
		if !info.FellBack || info.Dropped != 2 {
			t.Fatalf("mid-chain info = %+v", info)
		}
	})
}

func TestLineageCorruptFullFallsBackAGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 1})
	var payloads [][]byte
	for i := 0; i < 4; i++ { // full, delta, full, delta
		payloads = append(payloads, payloadN(t, i))
		if _, err := l.Write(payloads[i], false); err != nil {
			t.Fatal(err)
		}
	}
	entries := l.Entries()
	if entries[2].Kind != "full" {
		t.Fatalf("expected entry 2 to be a full, lineage = %+v", entries)
	}
	corruptMember(t, l, entries[2], 100)
	got, info, err := RecoverLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payloads[1]) {
		t.Fatal("did not fall back to the previous generation")
	}
	if !info.FellBack || info.Dropped != 2 {
		t.Fatalf("generation-fallback info = %+v", info)
	}

	// Corrupt the older generation too: recovery must now fail loudly.
	corruptMember(t, l, entries[0], 50)
	if _, _, err := RecoverLineage(path); err == nil {
		t.Fatal("recovered from a lineage with every generation corrupt")
	}
}

func TestLineageRetention(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 1, Keep: 2})
	for i := 0; i < 9; i++ { // generations: (0,1) (2,3) (4,5) (6,7) (8)
		if _, err := l.Write(payloadN(t, i), false); err != nil {
			t.Fatal(err)
		}
	}
	entries := l.Entries()
	fulls := 0
	for _, e := range entries {
		if e.Kind == "full" {
			fulls++
		}
	}
	if fulls != 2 {
		t.Fatalf("retention kept %d fulls, want 2 (entries %+v)", fulls, entries)
	}
	// Every listed member exists; nothing else remains on disk.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := make(map[string]bool)
	for _, de := range des {
		onDisk[de.Name()] = true
	}
	for _, e := range entries {
		if !onDisk[e.File] {
			t.Fatalf("the lineage lists %s but it is not on disk", e.File)
		}
		delete(onDisk, e.File)
	}
	if len(onDisk) != 0 {
		t.Fatalf("retention left unreferenced files: %v", onDisk)
	}
	// Recovery still lands on the newest payload.
	got, _, err := RecoverLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payloadN(t, 8)) {
		t.Fatal("post-retention recovery diverged")
	}
}

// TestLineageIgnoresStrayFiles pins that the listing is the members' names
// and nothing else: a manifest an older build left, temp files, names that
// are not members and another lineage's members neither list, nor move the
// next seq, nor change what recovers.
func TestLineageIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 2})
	var last []byte
	for i := 0; i < 3; i++ {
		last = payloadN(t, i)
		if _, err := l.Write(last, false); err != nil {
			t.Fatal(err)
		}
	}
	want := l.Entries()
	writeStrays(t, dir)
	l2 := openL(t, path, LineageOptions{DeltaEvery: 2})
	if got := l2.Entries(); !slices.Equal(got, want) {
		t.Fatalf("with strays beside it the lineage lists %+v, want %+v", got, want)
	}
	got, info, err := l2.Recover()
	if err != nil || !bytes.Equal(got, last) || info.FellBack {
		t.Fatalf("recovery among strays: %v (info %+v)", err, info)
	}
	if e, err := l2.Write(payloadN(t, 3), false); err != nil || e.Seq != 3 {
		t.Fatalf("next write among strays = %+v, %v; want seq 3", e, err)
	}
}

// writeStrays puts files that are not members of the lineage "ckpt" in dir:
// an old manifest, a name whose seq does not parse, a temp file, another
// lineage's member and a directory with a member's name.
func writeStrays(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{"ckpt.lineage", "ckpt.x.full", "ckpt.9.full.tmp", "ckpt.07.full", "other.7.full"} {
		if err := os.WriteFile(filepath.Join(dir, name), payloadN(t, 9), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "ckpt.8.full"), 0o755); err != nil {
		t.Fatal(err)
	}
}

func TestLineageReopenContinuesSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 5})
	for i := 0; i < 3; i++ {
		if _, err := l.Write(payloadN(t, i), false); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen (a restarted process), recover, keep writing: sequence numbers
	// must not collide and the first post-recover write stays chainable.
	l2 := openL(t, path, LineageOptions{DeltaEvery: 5})
	got, _, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payloadN(t, 2)) {
		t.Fatal("reopen recovery diverged")
	}
	e, err := l2.Write(payloadN(t, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 3 {
		t.Fatalf("post-reopen seq = %d, want 3", e.Seq)
	}
	if e.Kind != "delta" {
		t.Fatalf("post-recover write downgraded to %s; recover should prime the delta base", e.Kind)
	}
	gotFinal, info, err := RecoverLineage(path)
	if err != nil || !bytes.Equal(gotFinal, payloadN(t, 3)) {
		t.Fatalf("final recovery: %v (info %+v)", err, info)
	}
}

// TestLineageRecoverKeepsChainLength pins that deltas recovered from disk
// count toward DeltaEvery: a generation holding 3 deltas under DeltaEvery 4
// takes one more delta after a restart, then a full — never 4 more.
func TestLineageRecoverKeepsChainLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 4})
	for i := 0; i < 4; i++ { // full, delta, delta, delta
		if _, err := l.Write(payloadN(t, i), false); err != nil {
			t.Fatal(err)
		}
	}
	l2 := openL(t, path, LineageOptions{DeltaEvery: 4})
	if _, info, err := l2.Recover(); err != nil || info.Applied != 3 {
		t.Fatalf("recover: %v (info %+v)", err, info)
	}
	for i, want := range []string{"delta", "full"} {
		e, err := l2.Write(payloadN(t, 4+i), false)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind != want {
			t.Fatalf("write %d after recovering 3 deltas: %s, want %s", i, e.Kind, want)
		}
	}
}

func TestLineageForceFull(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 100})
	if _, err := l.Write(payloadN(t, 0), false); err != nil {
		t.Fatal(err)
	}
	e, err := l.Write(payloadN(t, 1), true)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "full" {
		t.Fatalf("forceFull wrote a %s", e.Kind)
	}
}

// TestLineageRecoverRefusesBareFile pins the error a pre-lineage single-file
// checkpoint gets: it must name the path and say what was expected there.
func TestLineageRecoverRefusesBareFile(t *testing.T) {
	bare := filepath.Join(t.TempDir(), "old.snap")
	if err := os.WriteFile(bare, payloadN(t, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := RecoverLineage(bare)
	if err == nil || !strings.Contains(err.Error(), bare) || !strings.Contains(err.Error(), "lineage") {
		t.Fatalf("recovering a bare file: %v, want an error naming %s and the lineage layout", err, bare)
	}
	nothing := filepath.Join(t.TempDir(), "nothing")
	if _, _, err := RecoverLineage(nothing); err == nil || !strings.Contains(err.Error(), nothing) {
		t.Fatalf("recovering an empty directory: %v", err)
	}
}

// TestLineageFullsOnlyRetainsNoBase pins that a lineage that never encodes a
// delta keeps no second copy of the payload — neither after Write nor after
// Recover — and that turning deltas on at reopen still starts with a full.
func TestLineageFullsOnlyRetainsNoBase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{Keep: 2})
	for i := 0; i < 3; i++ {
		e, err := l.Write(payloadN(t, i), false)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind != "full" || l.prev != nil {
			t.Fatalf("write %d: kind %s, %d base bytes retained", i, e.Kind, len(l.prev))
		}
	}
	l2 := openL(t, path, LineageOptions{Keep: 2})
	if _, _, err := l2.Recover(); err != nil {
		t.Fatal(err)
	}
	if l2.prev != nil {
		t.Fatalf("fulls-only recover retained %d base bytes", len(l2.prev))
	}

	l3 := openL(t, path, LineageOptions{Keep: 2, DeltaEvery: 4})
	for i, want := range []string{"full", "delta"} {
		e, err := l3.Write(payloadN(t, 3+i), false)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind != want {
			t.Fatalf("deltas turned on at reopen: write %d is a %s, want %s", i, e.Kind, want)
		}
	}
	got, info, err := RecoverLineage(path)
	if err != nil || !bytes.Equal(got, payloadN(t, 4)) || info.Applied != 1 {
		t.Fatalf("recovery across the switch: %v (info %+v)", err, info)
	}
}

// TestLineageStagingFailureRollsBack pins Write's failure rule for a delta
// whose temp file cannot be made: the write lists nothing and leaves no
// member, the retry reuses the seq on the same base, and the chain recovers
// whole.
func TestLineageStagingFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 4})
	for i := 0; i < 2; i++ {
		if _, err := l.Write(payloadN(t, i), false); err != nil {
			t.Fatal(err)
		}
	}
	block := filepath.Join(dir, "ckpt.2.delta.tmp") // a directory where the temp file goes
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(payloadN(t, 2), false); err == nil {
		t.Fatal("a write whose member could not be staged succeeded")
	}
	if got := l.Entries(); len(got) != 2 {
		t.Fatalf("after the failed write the lineage lists %+v, want the 2 members on disk", got)
	}
	assertAbsent(t, dir, "ckpt.2.delta", "ckpt.2.full", "ckpt.2.full.tmp")
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	e, err := l.Write(payloadN(t, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 2 || e.Kind != "delta" || e.Base != 1 {
		t.Fatalf("retried write = %+v, want delta seq 2 on base 1", e)
	}
	got, info, err := RecoverLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payloadN(t, 3)) || info.FellBack || info.Dropped != 0 || info.Applied != 2 {
		t.Fatalf("recovery after the retried write: info %+v, payload match %v", info, bytes.Equal(got, payloadN(t, 3)))
	}
}

// TestLineageStagingFailureKeepsPruned pins that a full whose temp file
// cannot be made prunes nothing: the generation it would have dropped stays
// listed, on disk and recoverable, and the retry takes the same seq and
// prunes then.
func TestLineageStagingFailureKeepsPruned(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 1, Keep: 1})
	for i := 0; i < 2; i++ { // full 0, delta 1
		if _, err := l.Write(payloadN(t, i), false); err != nil {
			t.Fatal(err)
		}
	}
	block := filepath.Join(dir, "ckpt.2.full.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(payloadN(t, 2), false); err == nil { // full 2 would prune 0 and 1
		t.Fatal("a write whose member could not be staged succeeded")
	}
	entries := l.Entries()
	if len(entries) != 2 {
		t.Fatalf("after the failed write the lineage lists %+v, want seqs 0 and 1", entries)
	}
	for _, e := range entries {
		if _, err := os.Stat(l.memberPath(e)); err != nil {
			t.Fatalf("listed member %s: %v", e.File, err)
		}
	}
	got, _, err := RecoverLineage(path)
	if err != nil || !bytes.Equal(got, payloadN(t, 1)) {
		t.Fatalf("recovery after the failed write: %v", err)
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if e, err := l.Write(payloadN(t, 2), false); err != nil || e.Seq != 2 || e.Kind != "full" {
		t.Fatalf("retried write = %+v, %v; want full seq 2", e, err)
	}
	assertAbsent(t, dir, "ckpt.0.full", "ckpt.1.delta")
}

// assertAbsent fails the test for each named file that exists in dir.
func assertAbsent(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		if _, err := os.Lstat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s is on disk: %v", name, err)
		}
	}
}

// TestLineageWriteOverBaseIsFull pins the guard on the retention contract: a
// payload captured over the buffer the lineage holds as its base leaves
// nothing to chain a delta to, so it is written whole, and the lineage
// recovers it.
func TestLineageWriteOverBaseIsFull(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 4})
	buf := payloadN(t, 0)
	if _, err := l.Write(buf, false); err != nil {
		t.Fatal(err)
	}
	next := buildContainer(t, sec("SESS", bytes.Repeat([]byte{9}, 64)), sec("JOBS", bytes.Repeat([]byte{0x4A}, 50000)))
	if len(next) != len(buf) {
		t.Fatalf("a %d-byte payload cannot overwrite the %d-byte base", len(next), len(buf))
	}
	copy(buf, next)
	e, err := l.Write(buf, false)
	if err != nil || e.Kind != "full" {
		t.Fatalf("write over the base: %+v, %v; want a full", e, err)
	}
	if got, _, err := RecoverLineage(path); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("recovery after a write over the base: %v", err)
	}
}

// TestLineageSelfCheckFailureWritesFull forces the self-check that runs
// beside the delta's write to fail: the temp file it raced is removed, the
// entry is a full the directory lists, recovery returns the payload, and the
// lineage holds no payload-sized buffer beyond its base and the retired one.
func TestLineageSelfCheckFailureWritesFull(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 4})
	first := payloadN(t, 0)
	if _, err := l.Write(first, false); err != nil {
		t.Fatal(err)
	}
	check := selfCheck
	t.Cleanup(func() { selfCheck = check })
	checks := 0
	selfCheck = func(want, baseData []byte, base *deltaNode, delta []byte) error {
		checks++
		return errors.New("forced self-check failure")
	}
	payload := payloadN(t, 1)
	e, err := l.Write(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	if checks != 1 || e.Kind != "full" || e.Seq != 1 {
		t.Fatalf("write under a failing self-check: %+v after %d checks, want full seq 1 after 1", e, checks)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".delta") || strings.HasSuffix(de.Name(), ".tmp") {
			t.Errorf("%s is left on disk", de.Name())
		}
	}
	if listed := scanLineage(path); len(listed) != 2 || listed[1] != e {
		t.Fatalf("the directory lists %+v, want the full %+v last", listed, e)
	}
	got, info, err := RecoverLineage(path)
	if err != nil || !bytes.Equal(got, payload) || info.Seq != 1 || info.FellBack {
		t.Fatalf("recovery: %v (info %+v, payload match %v)", err, info, bytes.Equal(got, payload))
	}
	base, retired, delta := l.Held()
	if base != cap(payload) || retired != cap(first) || delta > len(payload)/4 {
		t.Fatalf("lineage holds base %d, retired %d, delta scratch %d bytes; want %d, %d and under %d",
			base, retired, delta, cap(payload), cap(first), len(payload)/4)
	}
}

// TestLineageDirSyncFailureFailsWrite pins that a rename whose directory
// cannot be synced fails the write, naming the directory, under the same
// rule as a staging failure: the write lists nothing new, leaves no member
// behind and prunes nothing, and the next write reuses the seq — on the same
// base for a delta, and pruning then for a full.
func TestLineageDirSyncFailureFailsWrite(t *testing.T) {
	sync := syncDir
	t.Cleanup(func() { syncDir = sync })
	for _, tc := range []struct {
		name string
		full bool // a full, which Keep 1 has prune seq 0
		kind string
	}{{"delta", false, "delta"}, {"pruning full", true, "full"}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "ckpt")
			l := openL(t, path, LineageOptions{DeltaEvery: 4, Keep: 1})
			if _, err := l.Write(payloadN(t, 0), false); err != nil {
				t.Fatal(err)
			}
			syncDir = func(string) error { return errors.New("injected sync failure") }
			_, err := l.Write(payloadN(t, 1), tc.full)
			syncDir = sync
			if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "injected") {
				t.Fatalf("write under a failing directory sync: %v, want an error naming %s", err, dir)
			}
			if got := l.Entries(); len(got) != 1 || got[0].Seq != 0 {
				t.Fatalf("after the failed write the lineage lists %+v, want seq 0", got)
			}
			assertAbsent(t, dir, "ckpt.1.delta", "ckpt.1.full", "ckpt.1.delta.tmp", "ckpt.1.full.tmp")
			if got, info, err := RecoverLineage(path); err != nil || !bytes.Equal(got, payloadN(t, 0)) || info.FellBack {
				t.Fatalf("recovery after the failed write: %v (info %+v)", err, info)
			}
			e, err := l.Write(payloadN(t, 2), tc.full)
			if err != nil || e.Seq != 1 || e.Kind != tc.kind || e.Base != 0 {
				t.Fatalf("retried write = %+v, %v; want %s seq 1 on base 0", e, err, tc.kind)
			}
			if tc.full {
				assertAbsent(t, dir, "ckpt.0.full")
			}
			if got, info, err := RecoverLineage(path); err != nil || !bytes.Equal(got, payloadN(t, 2)) || info.FellBack {
				t.Fatalf("recovery after the retried write: %v (info %+v)", err, info)
			}
		})
	}
}

// TestLineageCorruptionSweep pins that the members' own CRCs catch every
// flipped byte and every truncation of a lineage's newest full and newest
// delta: recovery returns the newest payload still intact, marked as a
// fallback, and never fails while an older generation is intact. Strays sit
// beside the lineage throughout.
func TestLineageCorruptionSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 2})
	var payloads [][]byte
	for i := 0; i < 5; i++ { // full 0, delta 1, delta 2, full 3, delta 4
		p := buildContainer(t, sec("SESS", bytes.Repeat([]byte{byte(i)}, 64)), sec("JOBS", bytes.Repeat([]byte{0x4A}, 2000+100*i)))
		if _, err := l.Write(p, false); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	entries := l.Entries()
	if kinds := []string{entries[3].Kind, entries[4].Kind}; len(entries) != 5 || !slices.Equal(kinds, []string{"full", "delta"}) {
		t.Fatalf("lineage = %+v, want full 0, delta 1, delta 2, full 3, delta 4", entries)
	}
	writeStrays(t, dir)
	for _, tc := range []struct {
		member LineageEntry
		want   []byte // the newest payload intact without it
	}{{entries[3], payloads[2]}, {entries[4], payloads[3]}} {
		file := l.memberPath(tc.member)
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(file, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		check := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			got, info, err := RecoverLineage(path)
			if err != nil || !bytes.Equal(got, tc.want) || !info.FellBack {
				t.Fatalf("%s %s: recovery %v (info %+v, want payload match %v)", tc.member.File, what, err, info, bytes.Equal(got, tc.want))
			}
		}
		for i, b := range data {
			_, err := f.WriteAt([]byte{b ^ 0xFF}, int64(i))
			check("byte "+strconv.Itoa(i)+" flipped", err)
			if _, err := f.WriteAt([]byte{b}, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for n := len(data) - 1; n >= 0; n-- {
			check("truncated to "+strconv.Itoa(n)+" bytes", f.Truncate(int64(n)))
		}
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
