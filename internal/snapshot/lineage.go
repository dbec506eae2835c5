package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint lineage: a sequence of checkpoint files — full snapshots
// interleaved with deltas chaining off them — plus a manifest that records
// the chain. For a base path P the files are
//
//	P.<seq>.full    a complete snapshot container
//	P.<seq>.delta   a delta container chaining to the previous entry
//	P.lineage       the manifest (JSON, written atomically)
//
// Every file lands via temp + fsync + rename, and the manifest is rewritten
// (atomically) only after its newest file is durable, so a crash at any
// instant leaves a manifest whose entries all exist and were fully written.
// Recovery walks generations newest-first: load the generation's full,
// verify it (whole-file CRC against the manifest, then a full container
// parse), apply its deltas in order — a torn, truncated or bit-flipped
// entry ends the chain there and the tail is dropped; a bad full falls back
// to the previous generation. A corrupt or missing manifest degrades to a
// directory scan (the files are self-describing). Only when no generation
// yields a verifiable payload does recovery fail.
//
// Retention (Keep > 0) prunes whole generations: the newest Keep fulls and
// their deltas stay, older files are deleted after the manifest that no
// longer references them is durable.

// LineageEntry is one checkpoint file in the manifest.
type LineageEntry struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"` // "full" | "delta"
	File string `json:"file"` // base name, relative to the manifest's directory
	CRC  uint32 `json:"crc"`  // CRC32-C of the file bytes
	Size int64  `json:"size"`
	Base uint64 `json:"base,omitempty"` // previous seq in the chain (deltas)
}

type lineageManifest struct {
	Version int            `json:"version"`
	Entries []LineageEntry `json:"entries"`
}

// LineageOptions configures a Lineage writer.
type LineageOptions struct {
	// Keep bounds retention to this many newest full generations (a full
	// plus its deltas); 0 keeps everything. Keep=1 cannot fall back across
	// generations after a corrupt full — 2 is the robust minimum.
	Keep int
	// DeltaEvery writes this many deltas between fulls; 0 writes only fulls.
	DeltaEvery int
	// Chunk is the delta chunk granularity; 0 selects DefaultDeltaChunk.
	Chunk int
}

// Lineage writes and recovers a checkpoint lineage rooted at a base path.
// Not safe for concurrent use; the front door drives it from its sequencer
// goroutine.
type Lineage struct {
	path    string
	opt     LineageOptions
	entries []LineageEntry

	nextSeq   uint64
	sinceFull int
	prev      []byte     // last written (or recovered) payload, the delta base; nil while DeltaEvery is 0
	prevTree  *deltaNode // prev parsed, aliasing it; nil until a delta write needs it
	prevSeq   uint64

	// Scratch reused by every delta Write: the encoded delta, and the
	// self-check's reconstruction, which becomes the next base when it
	// matches the payload (the old base becomes the next scratch). All
	// three buffers grow by the one rule, Grow: delta sized exactly from its
	// plan (appendDelta), prev and spare by grow.
	delta []byte
	spare []byte
}

// manifestPath returns the manifest file for a lineage base path.
func manifestPath(path string) string { return path + ".lineage" }

// OpenLineage opens (or starts) the lineage rooted at path. An existing
// manifest is loaded so sequence numbers continue; a corrupt or missing
// manifest falls back to scanning the directory. The first Write after open
// is always a full (the delta base is not re-read from disk — Recover
// primes it).
func OpenLineage(path string, opt LineageOptions) (*Lineage, error) {
	if path == "" {
		return nil, fmt.Errorf("snapshot: lineage needs a base path")
	}
	l := &Lineage{path: path, opt: opt}
	l.entries = loadEntries(path)
	for _, e := range l.entries {
		if e.Seq >= l.nextSeq {
			l.nextSeq = e.Seq + 1
		}
	}
	return l, nil
}

// loadEntries reads the manifest, falling back to a directory scan when it
// is missing or corrupt.
func loadEntries(path string) []LineageEntry {
	data, err := os.ReadFile(manifestPath(path))
	if err == nil {
		var m lineageManifest
		if json.Unmarshal(data, &m) == nil && m.Version == 1 {
			ok := true
			for _, e := range m.Entries {
				if e.Kind != "full" && e.Kind != "delta" {
					ok = false
					break
				}
			}
			if ok {
				return m.Entries
			}
		}
	}
	return scanLineage(path)
}

// scanLineage rebuilds the entry list from the files themselves: base name
// pattern <base>.<seq>.(full|delta), sorted by seq. CRCs are computed from
// the file bytes (so a scan-recovered manifest still verifies), and a
// delta's base is taken as the preceding entry — ApplyDelta's recorded base
// CRC arbitrates if that guess is wrong.
func scanLineage(path string) []LineageEntry {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []LineageEntry
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, base+".") {
			continue
		}
		rest := strings.TrimPrefix(name, base+".")
		var kind string
		var seqStr string
		switch {
		case strings.HasSuffix(rest, ".full"):
			kind, seqStr = "full", strings.TrimSuffix(rest, ".full")
		case strings.HasSuffix(rest, ".delta"):
			kind, seqStr = "delta", strings.TrimSuffix(rest, ".delta")
		default:
			continue
		}
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		out = append(out, LineageEntry{
			Seq: seq, Kind: kind, File: name,
			CRC: Checksum(data), Size: int64(len(data)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	for i := 1; i < len(out); i++ {
		if out[i].Kind == "delta" {
			out[i].Base = out[i-1].Seq
		}
	}
	return out
}

// Entries returns a copy of the manifest's current entry list (what is
// kept on disk, oldest first).
func (l *Lineage) Entries() []LineageEntry {
	return append([]LineageEntry(nil), l.entries...)
}

// memberPath resolves an entry's file path.
func (l *Lineage) memberPath(e LineageEntry) string {
	dir, _ := filepath.Split(l.path)
	return filepath.Join(dir, e.File)
}

// entryName formats a member file's base name.
func (l *Lineage) entryName(seq uint64, kind string) string {
	_, base := filepath.Split(l.path)
	return fmt.Sprintf("%s.%d.%s", base, seq, kind)
}

// Write appends one checkpoint to the lineage. payload must be a complete
// snapshot container. The entry is a delta when a base is available, the
// cadence allows it and the delta round-trips (EncodeDelta + verification
// apply reproduce payload bit-exactly — a failed self-check quietly
// downgrades to a full, trading bytes for certainty); forceFull overrides
// the cadence (resize barriers and final drains always write fulls).
//
// With deltas on, payload is parsed once, every frame verified on the way:
// its tree is the delta's target and, re-pointed at the retained copy, the
// next write's base, so no write parses its base again. The base and
// self-check buffers the lineage keeps take payload's capacity when they
// must grow (see grow), so a caller that captures every checkpoint into one
// buffer sized for its stream has them allocated once too.
func (l *Lineage) Write(payload []byte, forceFull bool) (LineageEntry, error) {
	var tree *deltaNode
	if l.opt.DeltaEvery > 0 {
		tree, _ = parseDeltaTree(payload) // nil: not a container, so written as a full
	}
	kind, fileBytes := "full", payload
	var crc uint32
	if tree != nil {
		crc = tree.sum
	} else {
		crc = Checksum(payload)
	}
	if tree != nil && !forceFull && l.prev != nil && l.sinceFull < l.opt.DeltaEvery {
		if delta, sum, ok := l.encodeDelta(payload, tree); ok {
			kind, fileBytes, crc = "delta", delta, sum
		}
	}
	seq := l.nextSeq
	entry := LineageEntry{
		Seq: seq, Kind: kind, File: l.entryName(seq, kind),
		CRC: crc, Size: int64(len(fileBytes)),
	}
	if kind == "delta" {
		entry.Base = l.prevSeq
	}
	if err := writeFileAtomic(l.memberPath(entry), fileBytes); err != nil {
		return LineageEntry{}, err
	}
	kept := l.entries
	l.entries = append(l.entries, entry)
	pruned := l.prune()
	if err := l.writeManifest(); err != nil {
		// The manifest on disk still lists the old entries, so memory must
		// too: the next write reuses this seq, and a list that kept it would
		// name it twice. The member no manifest names goes with it.
		l.entries = kept
		os.Remove(l.memberPath(entry))
		return LineageEntry{}, err
	}
	// Old generations leave the disk only after the manifest that no longer
	// names them is durable.
	for _, e := range pruned {
		os.Remove(l.memberPath(e))
	}
	l.nextSeq = seq + 1
	if kind == "full" {
		l.setBase(payload, seq)
		l.sinceFull = 0
	} else {
		// The self-check's reconstruction is byte-equal to payload: it is
		// the next base, with no copy.
		l.prev, l.spare = l.spare, l.prev
		l.prevSeq = seq
		l.sinceFull++
	}
	if tree != nil {
		tree.repoint(l.prev)
	}
	l.prevTree = tree
	return entry, nil
}

// encodeDelta encodes payload, parsed as next, as a delta against the base
// into l.delta and self-checks it: applying it to the base must rebuild
// payload bit-exactly. The rebuild lands in l.spare, ready to become the
// next base. It returns the delta and its CRC32-C, or ok false to write a
// full instead.
func (l *Lineage) encodeDelta(payload []byte, next *deltaNode) (delta []byte, sum uint32, ok bool) {
	if l.prevTree == nil { // a recovered base is parsed by the first write that needs it
		if l.prevTree, _ = parseDeltaTree(l.prev); l.prevTree == nil {
			return nil, 0, false
		}
	}
	delta, sum, _, err := appendDelta(l.delta[:0], l.prevTree, next, l.prevSeq, l.nextSeq, l.opt.Chunk)
	l.delta = delta
	if err != nil {
		return nil, 0, false
	}
	l.spare = l.grow(l.spare, payload)
	back, _, err := applyDelta(l.spare, l.prev, l.prevTree, delta)
	if back != nil {
		l.spare = back
	}
	return delta, sum, err == nil && bytes.Equal(back, payload)
}

// setBase retains a copy of payload as the base the next delta encodes
// against; the caller sets prevTree. A fulls-only lineage never encodes one,
// so it holds no second copy of the state it checkpoints.
func (l *Lineage) setBase(payload []byte, seq uint64) {
	if l.opt.DeltaEvery > 0 {
		l.prev = append(l.grow(l.prev, payload), payload...)
		l.prevSeq = seq
	}
}

// grow empties b, one of the two payload-sized buffers the lineage keeps,
// and gives it room for payload. When it must grow, it takes payload's
// capacity where that is larger than Grow's headroom: a caller that reuses
// one capture buffer sized for its stream (engine.Session.AppendSnapshot
// sizes it from the size hint) gets bases and self-check buffers sized the
// same, so both are reallocated only when the capture buffer is, and never
// after one another as they trade places.
func (l *Lineage) grow(b, payload []byte) []byte {
	return Grow(b[:0], len(payload), cap(payload))
}

// prune trims entries beyond the Keep newest full generations, returning
// the dropped entries for deletion after the manifest lands. The kept
// entries are resliced, not moved, so a caller holding the old list can
// restore it.
func (l *Lineage) prune() []LineageEntry {
	if l.opt.Keep <= 0 {
		return nil
	}
	fulls := 0
	cut := 0 // index of the oldest entry to keep
	for i := len(l.entries) - 1; i >= 0; i-- {
		if l.entries[i].Kind == "full" {
			fulls++
			if fulls == l.opt.Keep {
				cut = i
				break
			}
		}
	}
	if fulls < l.opt.Keep || cut == 0 {
		return nil
	}
	dropped := l.entries[:cut:cut]
	l.entries = l.entries[cut:]
	return dropped
}

// writeManifest rewrites the manifest atomically.
func (l *Lineage) writeManifest() error {
	data, err := json.MarshalIndent(lineageManifest{Version: 1, Entries: l.entries}, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(manifestPath(l.path), append(data, '\n'))
}

// RecoverInfo reports how a recovery went.
type RecoverInfo struct {
	Seq      uint64 // sequence number of the recovered checkpoint
	Applied  int    // delta entries applied on top of the full
	Dropped  int    // newer entries skipped because they failed verification
	FellBack bool   // true when anything newer than the result was dropped
}

// Recover reconstructs the newest verifiable checkpoint payload and primes
// the lineage so the next Write may chain a delta off it. See the package
// comment for the fallback walk.
func (l *Lineage) Recover() ([]byte, RecoverInfo, error) {
	entries := l.entries
	if len(entries) == 0 {
		if fi, err := os.Stat(l.path); err == nil && fi.Mode().IsRegular() {
			return nil, RecoverInfo{}, fmt.Errorf("snapshot: %s is a single file, not the root of a checkpoint lineage (no %s or %s.<seq>.full beside it)", l.path, manifestPath(l.path), l.path)
		}
		return nil, RecoverInfo{}, fmt.Errorf("snapshot: lineage %s has no checkpoints", l.path)
	}
	// Generation start indices, newest first.
	var gens []int
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Kind == "full" {
			gens = append(gens, i)
		}
	}
	if len(gens) == 0 {
		return nil, RecoverInfo{}, fmt.Errorf("snapshot: lineage %s holds only deltas — no full checkpoint to anchor recovery", l.path)
	}
	var firstErr error
	for _, gi := range gens {
		full := entries[gi]
		payload, err := l.readVerified(full)
		var tree *deltaNode
		if err == nil {
			tree, err = parseDeltaTree(payload)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("full %d: %w", full.Seq, err)
			}
			continue
		}
		info := RecoverInfo{Seq: full.Seq}
		cur, curSeq, base := payload, full.Seq, tree
		// Apply this generation's deltas in order; stop at the first bad one.
		// They are read up front so that the two buffers the chain is rebuilt
		// in, alternately, are sized once, for its longest result.
		tail := entries[gi+1:]
		for k, e := range tail {
			if e.Kind != "delta" {
				tail = tail[:k] // the next generation's full and what follows it
				break
			}
		}
		data := make([][]byte, len(tail))
		errs := make([]error, len(tail))
		need, bound := 0, len(payload)
		for k, e := range tail {
			data[k], errs[k] = l.readVerified(e)
			// ApplyDelta refuses a result longer than its base plus five times
			// the delta, so bound caps what a corrupt header can make us size.
			bound += 5*len(data[k]) + 10
			need = max(need, min(deltaLen(data[k]), bound))
		}
		var bufs [2][]byte
		for k, e := range tail {
			err := errs[k]
			if err == nil {
				if cap(bufs[k%2]) < need {
					bufs[k%2] = make([]byte, 0, need)
				}
				var next []byte
				var dinfo DeltaInfo
				next, dinfo, err = applyDelta(bufs[k%2], cur, base, data[k])
				if err == nil && dinfo.BaseSeq != curSeq {
					err = fmt.Errorf("delta %d chains to seq %d, chain is at %d", e.Seq, dinfo.BaseSeq, curSeq)
				}
				if err == nil {
					cur, curSeq, base = next, e.Seq, nil
					info.Seq = e.Seq
					info.Applied++
					continue
				}
			}
			// This delta (and everything after it) is unusable.
			break
		}
		// Everything newer than what we applied — this generation's bad
		// tail plus any newer generations whose fulls failed — is dropped.
		info.Dropped = len(entries) - gi - 1 - info.Applied
		info.FellBack = info.Dropped > 0
		l.setBase(cur, curSeq)
		l.prevTree = nil
		if base != nil && l.prev != nil { // the full itself: its tree is the base's
			base.repoint(l.prev)
			l.prevTree = base
		}
		// The recovered generation already holds Applied deltas, which count
		// toward DeltaEvery like deltas this process wrote. After a fallback
		// the next write is a full: the dropped tail may still sit on disk,
		// and a delta chained across it would confuse a later scan.
		l.sinceFull = info.Applied
		if info.FellBack {
			l.sinceFull = l.opt.DeltaEvery
		}
		return cur, info, nil
	}
	return nil, RecoverInfo{}, fmt.Errorf("snapshot: no generation of lineage %s is recoverable (newest failure: %v)", l.path, firstErr)
}

// readVerified loads an entry's file and checks its whole-file CRC and size
// against the manifest.
func (l *Lineage) readVerified(e LineageEntry) ([]byte, error) {
	data, err := os.ReadFile(l.memberPath(e))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != e.Size {
		return nil, fmt.Errorf("snapshot: %s holds %d bytes, manifest records %d", e.File, len(data), e.Size)
	}
	if got := Checksum(data); got != e.CRC {
		return nil, fmt.Errorf("snapshot: %s CRC %08x, manifest records %08x", e.File, got, e.CRC)
	}
	return data, nil
}

// RecoverLineage is the one-shot read side: open the lineage at path and
// recover the newest verifiable payload.
func RecoverLineage(path string) ([]byte, RecoverInfo, error) {
	l, err := OpenLineage(path, LineageOptions{})
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	return l.Recover()
}

// writeFileAtomic lands data at path via temp file, fsync, rename, then
// fsyncs the directory so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}
