package snapshot

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Checkpoint lineage: a sequence of checkpoint files — full snapshots
// interleaved with deltas chaining off them. For a base path P the files are
//
//	P.<seq>.full    a complete snapshot container
//	P.<seq>.delta   a delta container chaining to the previous member
//
// and the directory is the lineage: opening one lists these names, and
// nothing else records which members exist. Every member lands via temp +
// fsync + rename + directory fsync, so a crash at any instant leaves only
// members that were fully written, or a member's temp file, which the
// listing ignores.
// Recovery walks generations newest-first: load the generation's full,
// verify it (a full container parse checks every frame's CRC), apply its
// deltas in order — a torn, truncated or bit-flipped member ends the chain
// there and the tail is dropped; a bad full falls back to the previous
// generation. Only when no generation yields a verifiable payload does
// recovery fail.
//
// Retention (Keep > 0) prunes whole generations: once a write commits, the
// members older than the newest Keep fulls are deleted, oldest first.

// LineageEntry is one member of a lineage.
type LineageEntry struct {
	Seq  uint64
	Kind string // "full" | "delta"
	File string // base name, in the lineage's directory
	Size int64
	Base uint64 // the seq a delta chains to, from its DLTA header
}

// LineageOptions configures a Lineage writer.
type LineageOptions struct {
	// Keep bounds retention to this many newest full generations (a full
	// plus its deltas); 0 keeps everything. Keep=1 cannot fall back across
	// generations after a corrupt full — 2 is the robust minimum.
	Keep int
	// DeltaEvery writes this many deltas between fulls; 0 writes only fulls.
	DeltaEvery int
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
	// The delta base: the payload of the last Write, or the one Recover
	// rebuilt, kept as handed over — never copied — with its parsed tree
	// (aliasing it; nil until a delta write needs it). nil while DeltaEvery
	// is 0.
	prev     []byte
	prevTree *deltaNode
	prevSeq  uint64
	// retired is the base the last Write replaced, which Recycle hands back
	// for the next capture.
	retired []byte
	// delta is the scratch every delta Write encodes into, sized exactly from
	// its plan (appendDelta).
	delta []byte
}

// OpenLineage opens (or starts) the lineage rooted at path, listing the
// members in its directory so sequence numbers continue. The first Write
// after open is always a full (the delta base is not re-read from disk —
// Recover primes it).
func OpenLineage(path string, opt LineageOptions) (*Lineage, error) {
	if path == "" {
		return nil, fmt.Errorf("snapshot: lineage needs a base path")
	}
	l := &Lineage{path: path, opt: opt, entries: scanLineage(path)}
	if n := len(l.entries); n > 0 {
		l.nextSeq = l.entries[n-1].Seq + 1
	}
	return l, nil
}

// scanLineage lists the members of the lineage at path by name — regular
// files <base>.<seq>.(full|delta), seq in canonical decimal — sorted by seq,
// with each size taken from the directory. Member contents are not read,
// except a delta's head, for the seq it chains to; recovery verifies each
// member as it reads it. Temp files and every other name are ignored.
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
		rest, ok := strings.CutPrefix(de.Name(), base+".")
		if !ok || !de.Type().IsRegular() {
			continue
		}
		seqStr, kind, _ := strings.Cut(rest, ".")
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil || strconv.FormatUint(seq, 10) != seqStr || (kind != "full" && kind != "delta") {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		e := LineageEntry{Seq: seq, Kind: kind, File: de.Name(), Size: fi.Size()}
		if kind == "delta" {
			e.Base, _ = deltaHead(filepath.Join(dir, e.File))
		}
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b LineageEntry) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Entries returns a copy of the lineage's member list: what the directory
// held at open plus what this Lineage has written since, less what it
// pruned, oldest first.
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
// cadence allows it and the delta round-trips (the self-check: applying the
// delta to the base must rebuild payload bit-exactly — a failed self-check
// quietly downgrades to a full, trading bytes for certainty); forceFull
// overrides the cadence (resize barriers and final drains always write
// fulls).
//
// With deltas on, payload is parsed once, every frame verified on the way:
// its tree is the delta's target and then, with payload itself, the next
// write's base, so no write parses or copies its base. Retention contract:
// after a successful Write with deltas on, the lineage holds payload as its
// base, and the caller must not modify it; Recycle hands back a buffer the
// lineage no longer needs, the base this write retired, for the next
// capture. So a caller that captures into what Recycle returns keeps two
// payload-sized buffers in play, the base and the capture, and the lineage
// adds only the delta buffer.
//
// A member is committed once its synced temp file is renamed and the
// directory synced. A Write that fails before that removes what it staged,
// lists nothing new, prunes nothing and holds nothing of payload: the
// lineage is as it was, and the next write reuses the seq.
//
// The parse and the delta plan use every core for a large payload (see
// parallelMin), and the self-check runs beside the write and fsync of the
// delta's temp file; all of Write's goroutines have exited when it returns.
func (l *Lineage) Write(payload []byte, forceFull bool) (LineageEntry, error) {
	if aliases(payload, l.prev) {
		// Captured over the base: the base's bytes are gone, so nothing can
		// chain to it. The payload is written whole and becomes the base.
		l.prev, l.prevTree = nil, nil
	}
	var tree *deltaNode
	if l.opt.DeltaEvery > 0 {
		tree, _ = parseDeltaTree(payload) // nil: not a container, so written as a full
	}
	var entry LineageEntry
	staged := false
	if tree != nil && !forceFull && l.prev != nil && l.sinceFull < l.opt.DeltaEvery {
		var err error
		if entry, staged, err = l.stageDelta(payload, tree); err != nil {
			return LineageEntry{}, err
		}
	}
	if !staged {
		entry = LineageEntry{Seq: l.nextSeq, Kind: "full", File: l.entryName(l.nextSeq, "full"), Size: int64(len(payload))}
		if err := writeTemp(l.memberPath(entry), payload); err != nil {
			return LineageEntry{}, err
		}
	}
	if err := commitFile(l.memberPath(entry)); err != nil {
		return LineageEntry{}, err
	}
	l.entries = append(l.entries, entry)
	l.prune()
	l.nextSeq++
	if entry.Kind == "full" {
		l.sinceFull = 0
	} else {
		l.sinceFull++
	}
	if l.opt.DeltaEvery > 0 {
		// A fulls-only lineage never encodes a delta, so it keeps no base.
		l.retired, l.prev, l.prevTree, l.prevSeq = l.prev, payload, tree, entry.Seq
	}
	return entry, nil
}

// Recycle returns a buffer, emptied, to capture the next checkpoint into:
// buf itself when the lineage does not hold it, else — buf is the base the
// last Write kept — the base that Write retired, or nil when there was none.
// A capture loop that writes buf and then captures into Recycle(buf) cycles
// two buffers, and never modifies the base.
func (l *Lineage) Recycle(buf []byte) []byte {
	if !aliases(buf, l.prev) {
		return buf[:0]
	}
	b := l.retired
	l.retired = nil
	return b[:0]
}

// Held returns the capacities of the buffers the lineage keeps between
// writes: its delta base, the retired base Recycle has yet to hand back, and
// the delta scratch.
func (l *Lineage) Held() (base, retired, delta int) {
	return cap(l.prev), cap(l.retired), cap(l.delta)
}

// aliases reports whether a and b start at the same byte of one array.
func aliases(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// selfCheck is the delta self-check Write runs; in-package tests replace it
// to force a failure.
var selfCheck = checkDelta

// stageDelta encodes payload, parsed as next, as a delta against the base
// into l.delta, and writes and fsyncs it to its member's temp file while the
// self-check runs beside it: applyDelta in compare mode (checkDelta) must
// find that the delta, applied to the base, rebuilds payload byte for byte.
// It returns the delta's entry once both have succeeded, for Write to
// commit. ok false, with no temp file left, means write a full instead; an
// error is the temp file's write failing under a passing check.
func (l *Lineage) stageDelta(payload []byte, next *deltaNode) (e LineageEntry, ok bool, err error) {
	if l.prevTree == nil { // a recovered base is parsed by the first write that needs it
		if l.prevTree, _ = parseDeltaTree(l.prev); l.prevTree == nil {
			return e, false, nil
		}
	}
	delta, _, _, err := appendDelta(l.delta[:0], l.prevTree, next, l.prevSeq, l.nextSeq, DefaultDeltaChunk)
	l.delta = delta
	if err != nil {
		return e, false, nil
	}
	seq := l.nextSeq
	e = LineageEntry{Seq: seq, Kind: "delta", File: l.entryName(seq, "delta"), Size: int64(len(delta)), Base: l.prevSeq}
	checked := make(chan error, 1)
	go func() { checked <- selfCheck(payload, l.prev, l.prevTree, delta) }()
	path := l.memberPath(e)
	err = writeTemp(path, delta)
	if <-checked != nil {
		os.Remove(tempPath(path))
		return e, false, nil
	}
	return e, err == nil, err
}

// prune drops the members older than the newest Keep fulls from the list
// and deletes them, oldest first, so a crash part-way leaves only older
// members, which the next write prunes again.
func (l *Lineage) prune() {
	if l.opt.Keep <= 0 {
		return
	}
	fulls := 0
	for i := len(l.entries) - 1; i > 0; i-- {
		if l.entries[i].Kind != "full" {
			continue
		}
		if fulls++; fulls == l.opt.Keep {
			for _, e := range l.entries[:i] {
				os.Remove(l.memberPath(e))
			}
			l.entries = l.entries[i:]
			return
		}
	}
}

// RecoverInfo reports how a recovery went.
type RecoverInfo struct {
	Seq      uint64 // sequence number of the recovered checkpoint
	Applied  int    // delta entries applied on top of the full
	Dropped  int    // newer entries skipped because they failed verification
	FellBack bool   // true when anything newer than the result was dropped
}

// Recover reconstructs the newest verifiable checkpoint payload and primes
// the lineage so the next Write may chain a delta off it: with deltas on, the
// returned payload is also the lineage's base, kept as it is, and the caller
// must not modify it. See the package comment for the fallback walk.
func (l *Lineage) Recover() ([]byte, RecoverInfo, error) {
	entries := l.entries
	if len(entries) == 0 {
		if fi, err := os.Stat(l.path); err == nil && fi.Mode().IsRegular() {
			return nil, RecoverInfo{}, fmt.Errorf("snapshot: %s is a single file, not the root of a checkpoint lineage (no %s.<seq>.full beside it)", l.path, l.path)
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
		payload, err := l.readMember(full, nil, 0)
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
		// Each is read just before it is applied, into one buffer sized for
		// the largest, and the two buffers the chain is rebuilt in,
		// alternately, are sized once, for its longest result, from the
		// members' headers, read first.
		tail := entries[gi+1:]
		for k, e := range tail {
			if e.Kind != "delta" {
				tail = tail[:k] // the next generation's full and what follows it
				break
			}
		}
		need, bound, largest := 0, len(payload), 0
		for _, e := range tail {
			size := int(e.Size)
			_, n := deltaHead(l.memberPath(e))
			largest = max(largest, size)
			// ApplyDelta refuses a result longer than its base plus five times
			// the delta, so bound caps what a corrupt header can make us size.
			bound += 5*size + 10
			need = max(need, min(n, bound))
		}
		var read []byte
		var bufs [2][]byte
		for k, e := range tail {
			delta, err := l.readMember(e, read, largest)
			if err == nil {
				read = delta
				if cap(bufs[k%2]) < need {
					bufs[k%2] = make([]byte, 0, need)
				}
				var next []byte
				var dinfo DeltaInfo
				next, dinfo, err = applyDelta(&buildSink{dst: bufs[k%2]}, cur, base, delta)
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
		if l.opt.DeltaEvery > 0 {
			// base is the full's tree when no delta applied, else nil: the
			// first delta write parses the rebuilt payload.
			l.prev, l.prevTree, l.prevSeq = cur, base, curSeq
		}
		// The recovered generation already holds Applied deltas, which count
		// toward DeltaEvery like deltas this process wrote. After a fallback
		// the next write is a full: the dropped tail may still sit on disk,
		// and recovery stops at its first bad member, so a delta chained
		// across it could never be applied.
		l.sinceFull = info.Applied
		if info.FellBack {
			l.sinceFull = l.opt.DeltaEvery
		}
		return cur, info, nil
	}
	return nil, RecoverInfo{}, fmt.Errorf("snapshot: no generation of lineage %s is recoverable (newest failure: %v)", l.path, firstErr)
}

// readMember loads an entry's file, which must still hold the bytes the
// listing found. It reads into buf's storage when that has room, and
// otherwise into a new buffer with room for max(e.Size, size) bytes. The
// bytes are not verified here: parseDeltaTree and applyDelta check every
// frame's CRC.
func (l *Lineage) readMember(e LineageEntry, buf []byte, size int) ([]byte, error) {
	f, err := os.Open(l.memberPath(e))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() != e.Size {
		return nil, fmt.Errorf("snapshot: %s holds %d bytes, listed with %d", e.File, fi.Size(), e.Size)
	}
	if int64(cap(buf)) < e.Size {
		buf = make([]byte, 0, max(int(e.Size), size))
	}
	data := buf[:e.Size]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}

// deltaHead reads the head of the delta member at path: the seq it chains
// to and the length of the container it rebuilds, as parseDeltaHead reads them.
// Both are 0 when the head does not read. Nothing is verified: applyDelta
// checks both against the member's CRCs and the chain.
func deltaHead(path string) (base uint64, n int) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	var head [deltaHeadBytes]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return 0, 0
	}
	return parseDeltaHead(head[:])
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

// tempPath is the file that path's bytes are written to before the rename.
func tempPath(path string) string { return path + ".tmp" }

// writeTemp writes data to path's temp file and fsyncs it. On failure the
// temp file is removed.
func writeTemp(path string, data []byte) error {
	tmp := tempPath(path)
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
	return nil
}

// commitFile renames path's synced temp file to path, then fsyncs the
// directory so the rename itself is durable. A directory that cannot be
// opened or synced fails it: until then the rename may not survive a crash,
// so path is removed again. On failure neither file is left.
func commitFile(path string) error {
	tmp := tempPath(path)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	dir := filepath.Dir(path)
	if err := syncDir(dir); err != nil {
		os.Remove(path)
		return fmt.Errorf("snapshot: syncing directory %s after renaming %s: %w", dir, filepath.Base(path), err)
	}
	return nil
}

// syncDir fsyncs a directory; in-package tests replace it to fail.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
