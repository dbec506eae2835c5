package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
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
	// Every manifest entry exists; nothing else remains on disk.
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
			t.Fatalf("manifest names %s but it is not on disk", e.File)
		}
		delete(onDisk, e.File)
	}
	delete(onDisk, "ckpt.lineage")
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

func TestLineageManifestCorruptScansDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 2})
	var last []byte
	for i := 0; i < 3; i++ {
		last = payloadN(t, i)
		if _, err := l.Write(last, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(manifestPath(path), []byte("{torn json"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := RecoverLineage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, last) {
		t.Fatal("scan-mode recovery diverged")
	}
	// A missing manifest behaves the same.
	os.Remove(manifestPath(path))
	got, _, err = RecoverLineage(path)
	if err != nil || !bytes.Equal(got, last) {
		t.Fatalf("manifest-less recovery: %v", err)
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

// TestLineageManifestFailureRollsBack pins that a write whose manifest does
// not land leaves the lineage as the manifest on disk has it: the retry
// reuses the seq, nothing is listed twice, and the chain recovers whole.
func TestLineageManifestFailureRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 4})
	for i := 0; i < 2; i++ {
		if _, err := l.Write(payloadN(t, i), false); err != nil {
			t.Fatal(err)
		}
	}
	block := manifestPath(path) + ".tmp" // a directory where the temp manifest goes
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(payloadN(t, 2), false); err == nil {
		t.Fatal("a write whose manifest could not land succeeded")
	}
	if got := l.Entries(); len(got) != 2 {
		t.Fatalf("after the failed write the lineage lists %+v, want the 2 entries on disk", got)
	}
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

// TestLineageManifestFailureKeepsPruned pins that a generation the failed
// write would have pruned stays listed and on disk.
func TestLineageManifestFailureKeepsPruned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	l := openL(t, path, LineageOptions{DeltaEvery: 1, Keep: 1})
	for i := 0; i < 2; i++ { // full 0, delta 1
		if _, err := l.Write(payloadN(t, i), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(manifestPath(path)+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(payloadN(t, 2), false); err == nil { // full 2 would prune 0 and 1
		t.Fatal("a write whose manifest could not land succeeded")
	}
	entries := l.Entries()
	if len(entries) != 2 {
		t.Fatalf("after the failed write the lineage lists %+v, want seqs 0 and 1", entries)
	}
	for _, e := range entries {
		if _, err := os.Stat(l.memberPath(e)); err != nil {
			t.Fatalf("member %s of the surviving manifest: %v", e.File, err)
		}
	}
	got, _, err := RecoverLineage(path)
	if err != nil || !bytes.Equal(got, payloadN(t, 1)) {
		t.Fatalf("recovery after the failed write: %v", err)
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
