package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// Delta checkpoints: instead of paying O(live state) bytes per periodic
// checkpoint of a long stream, a delta file records only the sections whose
// bytes changed since the previous checkpoint — and within a changed
// section, only the changed fixed-size chunks. Snapshot containers nest
// (a front checkpoint embeds a fleet container which embeds one session
// container per shard), and most engine sections are append-mostly (the job
// table, the conservation array, the interval log all grow at the tail), so
// diffing each *leaf* section against its counterpart in the base keeps a
// steady-state delta proportional to the per-interval churn, not to the
// total state. Diffing the flat file instead would be useless: one appended
// job shifts every later section's bytes and the whole tail re-emits.
//
// A delta file is itself an ordinary snapshot container:
//
//	DLTA — base seq + CRC, new seq + CRC, chunk size, and the new
//	       container's full structural skeleton (every node pre-order with
//	       depth and tag) plus one (mode, length) descriptor per leaf
//	PTCH — for each patched leaf, the changed chunks (index, bytes)
//	WHOL — for each new/rewritten leaf, its whole payload
//
// so truncation and bit flips in a delta are caught by the same per-section
// CRCs as any snapshot, and applying a delta to the wrong base fails on the
// recorded base CRC before any byte is interpreted. ApplyDelta reassembles
// the full container bytes and verifies the result's CRC against the one
// recorded at encode time — a reconstruction can never silently diverge
// from the donor's serialization.
const (
	tagDeltaHdr = "DLTA"
	tagPatch    = "PTCH"
	tagWhole    = "WHOL"
)

// Leaf reconstruction modes recorded in the DLTA header, one per leaf in
// pre-order.
const (
	leafSame  = 0 // bytes identical to the base leaf at the same path
	leafPatch = 1 // start from the base leaf, apply chunk patches
	leafWhole = 2 // full payload follows in a WHOL section
)

// DefaultDeltaChunk is the chunk granularity of leaf diffs. 4 KiB keeps the
// per-chunk bookkeeping negligible while an in-place mutation (one machine's
// run state, one outcome slot) costs one chunk, not one section.
const DefaultDeltaChunk = 4096

// maxDeltaNodes bounds the structural skeleton a delta may declare, far
// above any real container (a front checkpoint with 1<<20 shards stays
// under it) but low enough that a corrupt count cannot drive allocation.
const maxDeltaNodes = 1 << 22

// deltaNode is one section of a parsed container: a leaf holds its payload,
// a container holds its children (its payload is their serialization).
// Payloads alias the parsed bytes, at offset off in them, and sum is each
// payload's CRC32-C. occ is the section's occurrence index among its
// same-tag siblings: (tag, occ) at every level names a section by role
// ("FLTB#0/SHRD#2/JOBS#0"), so two checkpoints' leaves match by role even
// where sibling tags repeat (the fleet's SHRD frames). The root is the whole
// container: off 0, payload and sum those of the parsed bytes.
type deltaNode struct {
	tag      string
	occ      int
	off      int
	payload  []byte
	sum      uint32
	children []deltaNode
	isLeaf   bool
	byRole   map[role]int // children by role, built on the first lookup that misses its hint
}

type role struct {
	tag string
	occ int
}

// parseDeltaTree parses data as a snapshot container, recursing into any
// section whose payload is itself a well-formed container, and verifies
// every frame in the same walk with one read of the bytes: a leaf's payload
// CRC is computed, a nested container's is derived from its frames (see
// crc.go), and each frame's stored CRC is compared with the CRC of exactly
// its tag and payload. Sections of at least parallelMin bytes are verified
// on worker goroutines (see parse). It fails only when data's top level is
// not a valid container — exactly the torn-write / bit-flip /
// trailing-garbage detector the lineage recovery needs.
func parseDeltaTree(data []byte) (*deltaNode, error) {
	root := &deltaNode{payload: data}
	sum, err := root.parse(data, newWorkers())
	if err != nil {
		return nil, err
	}
	root.sum = sum
	return root, nil
}

// parse fills n's children from the container bytes data (n's payload) and
// returns data's CRC32-C. It goes over the frames three times: it splits
// them off, reading only their framing; it verifies each section, the ones
// of at least parallelMin bytes on w's helpers as well as here; then it
// accepts the frames in order, each against its section's CRC. So the
// checks and the first error are those of a frame-by-frame walk.
func (n *deltaNode) parse(data []byte, w *workers) (uint32, error) {
	sr, err := newReader(data)
	if err != nil {
		return 0, err
	}
	sr.AllowDuplicates()
	// Split, up to the end frame or the first frame that does not split (the
	// accept loop meets its error again). The end frame gets a node too, so
	// that node k is frame k, and is dropped once accepted.
	split := *sr
	var large []int
	for {
		at := split.off
		tag, payload, _, err := split.frame()
		if err != nil {
			break
		}
		if len(payload) >= parallelMin {
			large = append(large, len(n.children))
		}
		n.children = append(n.children, deltaNode{tag: tag, off: n.off + at + 8, payload: payload, isLeaf: true})
		split.off += 12 + len(payload)
		if tag == EndTag {
			break
		}
	}
	kids := n.children
	if len(large) == 0 {
		for k := range kids {
			kids[k].verify(w)
		}
	} else {
		// The large sections first: the caller takes the first, helpers the
		// others, and whoever is free the small ones after them.
		order := large
		for k := range kids {
			if len(kids[k].payload) < parallelMin {
				order = append(order, k)
			}
		}
		w.each(len(order), len(large)-1, func(k int) { kids[order[k]].verify(w) })
	}
	sum := headerSum
	var seen map[string]int
	for k := 0; ; k++ {
		at := sr.off
		tag, payload, stored, err := sr.frame()
		if err != nil {
			n.children = nil
			return 0, err
		}
		child := &kids[k]
		err = sr.accept(tag, payload, stored, child.sum)
		sum = appendFrameSum(sum, data[at:at+12+len(payload)], child.sum)
		if err == io.EOF {
			n.children = kids[:k]
			return sum, nil
		}
		if err != nil {
			n.children = nil
			return 0, err
		}
		if seen == nil {
			seen = make(map[string]int, 8)
		}
		child.occ = seen[tag]
		seen[tag]++
	}
}

// verify sets n's CRC32-C and, when its payload is a well-formed container,
// its children.
func (n *deltaNode) verify(w *workers) {
	// A nested container always starts with the 8-byte magic; a leaf
	// payload cannot collide with it by accident (its first 8 bytes would
	// have to spell "SCHSNAP\0"), and even then the full parse arbitrates:
	// only a completely well-formed container recurses.
	if len(n.payload) >= 10 && bytes.Equal(n.payload[:8], magic[:]) {
		if s, err := n.parse(n.payload, w); err == nil {
			n.sum, n.isLeaf = s, false
			return
		}
	}
	n.sum = Checksum(n.payload)
}

// find returns n's child in role (tag, occ), or nil when n is nil or has
// none. hint is the child index to try first: two checkpoints of one system
// list their sections in the same order, so the hint almost always hits.
func (n *deltaNode) find(tag string, occ, hint int) *deltaNode {
	if n == nil {
		return nil
	}
	if hint < len(n.children) {
		if c := &n.children[hint]; c.tag == tag && c.occ == occ {
			return c
		}
	}
	if n.byRole == nil {
		n.byRole = make(map[role]int, len(n.children))
		for k := range n.children {
			n.byRole[role{n.children[k].tag, n.children[k].occ}] = k
		}
	}
	if k, ok := n.byRole[role{tag, occ}]; ok {
		return &n.children[k]
	}
	return nil
}

// counterpart is find narrowed to the kind of section the caller needs: a
// base leaf for a new leaf, a base container for a new container.
func (n *deltaNode) counterpart(tag string, occ int, isLeaf bool, hint int) *deltaNode {
	b := n.find(tag, occ, hint)
	if b != nil && b.isLeaf != isLeaf {
		return nil
	}
	return b
}

// countNodes returns the number of sections in the tree (excluding the
// synthetic root).
func countNodes(n *deltaNode) int {
	total := len(n.children)
	for k := range n.children {
		if !n.children[k].isLeaf {
			total += countNodes(&n.children[k])
		}
	}
	return total
}

// encodeSkeleton appends the tree structure pre-order: depth, 4-byte tag,
// leaf flag. Reassembly rebuilds the exact nesting from this alone.
func encodeSkeleton(e *Encoder, n *deltaNode, depth int) {
	for k := range n.children {
		c := &n.children[k]
		e.U8(uint8(depth))
		e.Raw([]byte(c.tag))
		if c.isLeaf {
			e.U8(1)
		} else {
			e.U8(0)
			encodeSkeleton(e, c, depth+1)
		}
	}
}

// leafPlan is how one leaf of the new container is carried by the delta.
type leafPlan struct {
	payload []byte // the new leaf
	sum     uint32 // its CRC32-C
	mode    uint8
	dirty   []int // chunk indexes to patch (leafPatch)
}

// planDelta plans every leaf of the new container n against base, its
// counterpart in the base tree: one plan per leaf, pre-order. One walk here
// looks up each leaf's base counterpart (the lookups build the base's role
// maps) and plans the small leaves; the leaves of at least parallelMin bytes
// are then chunk-compared on workers, each into its own slot of the list.
func planDelta(n, base *deltaNode, chunk int) []leafPlan {
	type pending struct {
		slot int
		c, b *deltaNode
	}
	var plans []leafPlan
	var large []pending
	var walk func(n, base *deltaNode)
	walk = func(n, base *deltaNode) {
		for k := range n.children {
			c := &n.children[k]
			b := base.counterpart(c.tag, c.occ, c.isLeaf, k)
			switch {
			case !c.isLeaf:
				walk(c, b)
			case len(c.payload) >= parallelMin:
				large = append(large, pending{len(plans), c, b})
				plans = append(plans, leafPlan{})
			default:
				plans = append(plans, planLeaf(c, b, chunk))
			}
		}
	}
	walk(n, base)
	if len(large) > 0 {
		newWorkers().each(len(large), len(large)-1, func(k int) {
			p := large[k]
			plans[p.slot] = planLeaf(p.c, p.b, chunk)
		})
	}
	return plans
}

// planLeaf diffs the leaf c against its base counterpart (nil: none).
func planLeaf(c, b *deltaNode, chunk int) leafPlan {
	payload := c.payload
	p := leafPlan{payload: payload, sum: c.sum, mode: leafWhole}
	if b == nil {
		return p
	}
	base := b.payload
	if bytes.Equal(base, payload) {
		p.mode = leafSame
		return p
	}
	// Chunk-compare against the base leaf. A chunk differs when its bytes
	// differ or its extent does (the boundary chunk of a grown or shrunk
	// leaf always differs). Once the patches would cost the whole leaf, it
	// is sent whole. A pure truncation on a chunk boundary yields zero dirty
	// chunks; the recorded leaf length alone reconstructs it.
	patchedBytes := 0
	for lo := 0; lo < len(payload); lo += chunk {
		hi := min(lo+chunk, len(payload))
		var bchunk []byte
		if lo < len(base) {
			bchunk = base[lo:min(lo+chunk, len(base))]
		}
		if !bytes.Equal(payload[lo:hi], bchunk) {
			p.dirty = append(p.dirty, lo/chunk)
			patchedBytes += (hi - lo) + 8 // payload + per-patch framing
			if patchedBytes >= len(payload) {
				p.dirty = nil
				return p
			}
		}
	}
	if patchedBytes >= len(payload) {
		return p
	}
	p.mode = leafPatch
	return p
}

// EncodeDelta writes a delta container to w that reconstructs newData from
// baseData. Both must be snapshot containers (as written by Writer); chunk
// ≤ 0 selects DefaultDeltaChunk. baseSeq and seq are the lineage sequence
// numbers of the two checkpoints, recorded so a chain applies in order.
// It returns the number of leaves emitted as patches or whole payloads
// (0 means the two containers are byte-identical outside framing).
func EncodeDelta(w io.Writer, baseData, newData []byte, baseSeq, seq uint64, chunk int) (changed int, err error) {
	base, err := parseDeltaTree(baseData)
	if err != nil {
		return 0, fmt.Errorf("snapshot: delta base is not a valid container: %w", err)
	}
	next, err := parseDeltaTree(newData)
	if err != nil {
		return 0, fmt.Errorf("snapshot: delta target is not a valid container: %w", err)
	}
	out, _, changed, err := appendDelta(nil, base, next, baseSeq, seq, chunk)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(out); err != nil {
		return 0, fmt.Errorf("snapshot: writing delta: %w", err)
	}
	return changed, nil
}

// appendDelta is EncodeDelta over parsed trees, appending the delta
// container to dst. It also returns the delta container's CRC32-C.
func appendDelta(dst []byte, base, next *deltaNode, baseSeq, seq uint64, chunk int) ([]byte, uint32, int, error) {
	if chunk <= 0 {
		chunk = DefaultDeltaChunk
	}
	plans := planDelta(next, base, chunk)
	nodes := countNodes(next)

	sw := AppendWriter(Grow(dst, deltaSize(plans, nodes, chunk), 0))
	sw.Section(tagDeltaHdr, func(e *Encoder) {
		e.U64(baseSeq)
		e.U64(seq)
		e.U32(uint32(chunk))
		e.U32(base.sum)
		e.U32(next.sum)
		e.U64(uint64(len(next.payload)))
		e.U64(uint64(nodes))
		encodeSkeleton(e, next, 0)
		e.U64(uint64(len(plans)))
		for i := range plans {
			e.U8(plans[i].mode)
			e.U64(uint64(len(plans[i].payload)))
		}
	})
	changed := 0
	for i := range plans {
		p := &plans[i]
		switch p.mode {
		case leafWhole:
			sw.Frame(tagWhole, p.payload, p.sum)
		case leafPatch:
			sw.Section(tagPatch, func(e *Encoder) {
				e.U64(uint64(len(p.dirty)))
				for _, c := range p.dirty {
					lo := c * chunk
					hi := min(lo+chunk, len(p.payload))
					e.U32(uint32(c))
					e.U32(uint32(hi - lo))
					e.Raw(p.payload[lo:hi])
				}
			})
		default:
			continue
		}
		changed++
	}
	err := sw.Close()
	return sw.Bytes(), sw.sum, changed, err
}

// deltaSize is the exact size of the delta appendDelta writes for plans
// over a container of nodes sections: the header section (fixed fields, a
// 6-byte skeleton entry per section, a 9-byte descriptor per leaf), one
// frame per changed leaf, and the end section.
func deltaSize(plans []leafPlan, nodes, chunk int) int {
	size := HeaderBytes + FrameBytes + 8 + 8 + 4 + 4 + 4 + 8 + 8 + 6*nodes + 8 + 9*len(plans)
	for i := range plans {
		p := &plans[i]
		switch p.mode {
		case leafWhole:
			size += FrameBytes + len(p.payload)
		case leafPatch:
			size += FrameBytes + 8
			for _, c := range p.dirty {
				size += 8 + min(chunk, len(p.payload)-c*chunk)
			}
		}
	}
	return size + FrameBytes
}

// DeltaInfo reports what a parsed delta chains to.
type DeltaInfo struct {
	BaseSeq uint64
	Seq     uint64
	BaseCRC uint32
	NewCRC  uint32
}

// skeletonLeaves validates n pre-order (depth, tag, leaf) skeleton entries —
// each node's depth must name an open container — and returns the number of
// leaves among them.
func skeletonLeaves(d *Decoder, n int) (int, error) {
	open, leaves := 1, 0 // open containers, the synthetic root included
	for k := 0; k < n; k++ {
		depth := int(d.U8())
		d.take(4, "section tag")
		leaf := d.U8()
		if d.Err() != nil {
			return 0, d.Err()
		}
		if depth+1 > open {
			d.Failf("skeleton node %d at depth %d with no open parent", k, depth)
			return 0, d.Err()
		}
		open = depth + 1
		if leaf == 1 {
			leaves++
		} else {
			open++
		}
	}
	return leaves, nil
}

// deltaHeader reads the fixed fields that open a DLTA section: the chain
// info, the chunk size, the rebuilt container's length and its node count.
func deltaHeader(d *Decoder) (info DeltaInfo, chunk int, totalLen, nNodes uint64) {
	info.BaseSeq = d.U64()
	info.Seq = d.U64()
	chunk = int(d.U32())
	info.BaseCRC = d.U32()
	info.NewCRC = d.U32()
	totalLen = d.U64()
	nNodes = d.U64()
	return info, chunk, totalLen, nNodes
}

// deltaHeadBytes is the prefix of a delta container that holds its DLTA
// section's fixed fields (deltaHeader): the stream header, the section's
// frame header, and 44 bytes of payload.
const deltaHeadBytes = HeaderBytes + 8 + 44

// parseDeltaHead returns the seq a delta chains to and the length of the
// container it rebuilds, as the fixed fields in head, its first
// deltaHeadBytes bytes, declare them, or zeros when they do not read.
// Nothing is verified: the section's CRC covers bytes past head, so the seq
// is only a label and the length only a size to reserve.
func parseDeltaHead(head []byte) (base uint64, n int) {
	if len(head) < deltaHeadBytes || !bytes.Equal(head[:8], magic[:]) || string(head[HeaderBytes:HeaderBytes+4]) != tagDeltaHdr {
		return 0, 0
	}
	d := &Decoder{tag: tagDeltaHdr, buf: head[HeaderBytes+8 : deltaHeadBytes]}
	info, _, total, _ := deltaHeader(d)
	if d.Err() != nil || total > math.MaxInt {
		return 0, 0
	}
	return info.BaseSeq, int(total)
}

// ApplyDelta reconstructs the full container a delta was encoded against:
// baseData must be the checkpoint the delta chained to (verified by CRC
// before any patch is applied), and the returned bytes are verified against
// the CRC recorded at encode time, so the result is bit-identical to the
// donor's serialization or the call fails.
func ApplyDelta(baseData []byte, delta io.Reader) ([]byte, DeltaInfo, error) {
	var data []byte
	if err := readAll(delta, &data); err != nil {
		return nil, DeltaInfo{}, fmt.Errorf("snapshot: reading delta: %w", err)
	}
	return applyDelta(&buildSink{}, baseData, nil, data)
}

// applyDelta is ApplyDelta over an in-memory delta, handing the container it
// rebuilds to out: a buildSink writes it, a checkSink compares it with the
// payload it must equal. base is baseData's parsed tree, or nil to parse it
// here. The result is rebuilt once, in order: unchanged and patched leaves
// come from the base straight into their frames in the output, patch chunks
// are overlaid there, and nested containers are framed in place around their
// children. Only patched leaves are CRC'd: an unchanged leaf's CRC comes from
// the base tree, a whole leaf's from its verified WHOL frame, and a nested
// frame's and the result's from the frames inside them. Both sinks get the
// same checks: the base CRC, the skeleton, the descriptors, the length and
// the result CRC.
func applyDelta(out deltaSink, baseData []byte, base *deltaNode, delta []byte) ([]byte, DeltaInfo, error) {
	var info DeltaInfo
	sr, err := newReader(delta)
	if err != nil {
		return nil, info, err
	}
	sr.Repeatable(tagPatch, tagWhole)
	d, err := sr.Section(tagDeltaHdr)
	if err != nil {
		return nil, info, err
	}
	info, chunk, totalLen, nNodes := deltaHeader(d)
	if err := d.Err(); err != nil {
		return nil, info, err
	}
	if chunk <= 0 {
		d.Failf("delta chunk size %d", chunk)
		return nil, info, d.Err()
	}
	if nNodes > maxDeltaNodes {
		d.Failf("delta skeleton declares %d sections", nNodes)
		return nil, info, d.Err()
	}
	// Every byte of a reconstruction comes from the base, from the delta,
	// or is framing worth less than 5 bytes per 6-byte skeleton entry, so a
	// larger declared length is corrupt and must not drive the allocation.
	if limit := uint64(len(baseData)) + 5*uint64(len(delta)) + 10; totalLen > limit {
		d.Failf("delta declares a %d-byte result from a %d-byte base and a %d-byte delta", totalLen, len(baseData), len(delta))
		return nil, info, d.Err()
	}
	var baseErr error
	if base == nil {
		base, baseErr = parseDeltaTree(baseData)
	}
	var baseSum uint32
	if base != nil {
		baseSum = base.sum
	} else {
		baseSum = Checksum(baseData) // a base that does not parse has no tree to take it from
	}
	if baseSum != info.BaseCRC {
		return nil, info, fmt.Errorf("snapshot: delta %d chains to base %d with CRC %08x, supplied base has %08x",
			info.Seq, info.BaseSeq, info.BaseCRC, baseSum)
	}
	skelStart := d.off
	nLeaves, err := skeletonLeaves(d, int(nNodes))
	if err != nil {
		return nil, info, err
	}
	skel := Decoder{tag: d.tag, buf: d.buf[:d.off], off: skelStart}
	type leafDesc struct {
		mode uint8
		size uint64
	}
	descs := make([]leafDesc, d.Count(9))
	var sized uint64
	for i := range descs {
		descs[i] = leafDesc{mode: d.U8(), size: d.U64()}
		if descs[i].mode > leafWhole {
			d.Failf("leaf %d has unknown mode %d", i, descs[i].mode)
		}
		if descs[i].size > totalLen-sized {
			d.Failf("leaf %d of %d bytes overflows the declared %d-byte result", i, descs[i].size, totalLen)
		}
		sized += descs[i].size
	}
	if err := d.Done(); err != nil {
		return nil, info, err
	}
	if nLeaves != len(descs) {
		return nil, info, fmt.Errorf("snapshot: delta skeleton holds %d leaves, descriptor table %d", nLeaves, len(descs))
	}
	if baseErr != nil {
		return nil, info, fmt.Errorf("snapshot: delta base is not a valid container: %w", baseErr)
	}

	// Reassemble pre-order, consuming PTCH/WHOL sections in the order they
	// were emitted. stack[d] is the open container at depth d with its base
	// counterpart; the Writer's framing is canonical, so the result is the
	// donor's exact bytes — verified by the recorded CRC.
	if err := out.start(int(totalLen)); err != nil {
		return nil, info, err
	}
	type level struct {
		tag   string
		occ   int
		start int // frame offset in the output (nested containers)
		base  *deltaNode
		seen  map[string]int
		next  int // children so far
	}
	stack := []level{{base: base}}
	path := func(tag string, occ int) string {
		var b strings.Builder
		for _, lv := range stack[1:] {
			fmt.Fprintf(&b, "%s#%d/", lv.tag, lv.occ)
		}
		fmt.Fprintf(&b, "%s#%d", tag, occ)
		return b.String()
	}
	leaf := 0
	for k := 0; k < int(nNodes); k++ {
		depth := int(skel.U8())
		tag := string(skel.take(4, "section tag"))
		isLeaf := skel.U8() == 1
		for len(stack) > depth+1 {
			top := stack[len(stack)-1]
			out.closeNested(top.tag, top.start)
			stack = stack[:len(stack)-1]
		}
		lv := &stack[depth]
		if lv.seen == nil {
			lv.seen = make(map[string]int, 8)
		}
		occ := lv.seen[tag]
		lv.seen[tag]++
		b := lv.base.counterpart(tag, occ, isLeaf, lv.next)
		lv.next++
		if !isLeaf {
			start, err := out.openNested(tag)
			if err != nil {
				return nil, info, err
			}
			stack = append(stack, level{tag: tag, occ: occ, start: start, base: b})
			continue
		}
		desc := descs[leaf]
		leaf++
		switch desc.mode {
		case leafSame:
			if b == nil {
				return nil, info, fmt.Errorf("snapshot: delta marks leaf %s unchanged but the base has no such section", path(tag, occ))
			}
			if uint64(len(b.payload)) != desc.size {
				return nil, info, fmt.Errorf("snapshot: delta leaf %s declares %d bytes, base holds %d", path(tag, occ), desc.size, len(b.payload))
			}
			out.Frame(tag, b.payload, b.sum)
		case leafWhole:
			pd, err := sr.Section(tagWhole)
			if err != nil {
				return nil, info, fmt.Errorf("snapshot: delta leaf %s: %w", path(tag, occ), err)
			}
			body := pd.Rest()
			if uint64(len(body)) != desc.size {
				return nil, info, fmt.Errorf("snapshot: delta leaf %s declares %d bytes, whole payload holds %d", path(tag, occ), desc.size, len(body))
			}
			out.Frame(tag, body, pd.sum)
		case leafPatch:
			if b == nil {
				return nil, info, fmt.Errorf("snapshot: delta patches leaf %s but the base has no such section", path(tag, occ))
			}
			pd, err := sr.Section(tagPatch)
			if err != nil {
				return nil, info, fmt.Errorf("snapshot: delta leaf %s: %w", path(tag, occ), err)
			}
			if err := out.patch(tag, b.payload, int(desc.size), pd, chunk); err != nil {
				return nil, info, err
			}
		}
	}
	for len(stack) > 1 {
		top := stack[len(stack)-1]
		out.closeNested(top.tag, top.start)
		stack = stack[:len(stack)-1]
	}
	if err := sr.End(); err != nil {
		return nil, info, err
	}
	if err := out.Close(); err != nil {
		return nil, info, err
	}
	res, sum := out.result()
	if uint64(len(res)) != totalLen {
		return nil, info, fmt.Errorf("snapshot: delta reassembled %d bytes, expected %d", len(res), totalLen)
	}
	if sum != info.NewCRC {
		return nil, info, fmt.Errorf("snapshot: delta reassembly CRC %08x does not match the recorded %08x", sum, info.NewCRC)
	}
	return res, info, nil
}

// deltaSink receives the container applyDelta rebuilds, section by section
// in order, with the Writer's framing calls. Errors other than start's and
// patch's decode errors are sticky and surface at Close.
type deltaSink interface {
	// start announces the rebuilt container's length and writes its header.
	start(n int) error
	openNested(tag string) (int, error)
	closeNested(tag string, start int) error
	Frame(tag string, payload []byte, sum uint32) error
	// patch emits a leaf of size bytes: base's bytes, zero-extended to
	// size, overlaid with the PTCH section pd's chunks.
	patch(tag string, base []byte, size int, pd *Decoder, chunk int) error
	Close() error
	// result returns the rebuilt container and its CRC32-C.
	result() ([]byte, uint32)
}

// buildSink writes the rebuilt container, into dst's storage when it is
// large enough (its contents are discarded).
type buildSink struct {
	*Writer
	dst []byte
}

func (b *buildSink) start(n int) error {
	if cap(b.dst) < n {
		b.dst = make([]byte, 0, n)
	}
	b.Writer = AppendWriter(b.dst[:0])
	return nil
}

func (b *buildSink) patch(tag string, base []byte, size int, pd *Decoder, chunk int) error {
	start, err := b.open(tag)
	if err != nil {
		return err
	}
	lo := len(b.enc.buf)
	keep := min(len(base), size)
	b.enc.buf = append(b.enc.buf, base[:keep]...)
	// A grown leaf's tail is not cleared up front: the chunks overwrite
	// most of it, and zeros go only where none lands (chunks ascend and do
	// not overlap, so zero is the first tail byte not yet written).
	b.enc.Extend(size - keep)
	leaf := b.enc.buf[lo:]
	zero := keep
	if err := eachChunk(pd, size, chunk, func(at int, p []byte) {
		if at > zero {
			clear(leaf[zero:at])
		}
		copy(leaf[at:], p)
		zero = max(zero, at+len(p))
	}); err != nil {
		return err
	}
	clear(leaf[zero:])
	return b.seal(tag, start, Checksum(leaf))
}

func (b *buildSink) result() ([]byte, uint32) { return b.Bytes(), b.sum }

// checkSink is the lineage's self-check: instead of writing the container a
// delta rebuilds, it compares every byte a buildSink would write — framing,
// leaves, patch chunks — with want, the payload the delta was encoded from,
// at the same offset, and keeps the running CRCs the Writer would. So the
// check builds nothing, and applyDelta's own checks run on it unchanged. The
// first difference is a sticky error.
type checkSink struct {
	want  []byte
	off   int      // bytes of want matched so far
	sum   uint32   // running CRC32-C of the innermost open container
	outer []uint32 // running CRCs of the containers enclosing it
	err   error
}

func (c *checkSink) failf(format string, args ...any) error {
	if c.err == nil {
		c.err = fmt.Errorf("snapshot: delta self-check: "+format, args...)
	}
	return c.err
}

// match compares b with the next len(b) bytes of want and steps past them.
func (c *checkSink) match(b []byte) {
	if c.err != nil {
		return
	}
	if len(c.want)-c.off < len(b) || !bytes.Equal(c.want[c.off:c.off+len(b)], b) {
		c.failf("rebuilt bytes differ from the payload at or after byte %d", c.off)
		return
	}
	c.off += len(b)
}

// zeros matches n zero bytes: the tail a patched leaf grows by beyond its
// base.
func (c *checkSink) zeros(n int) {
	if c.err != nil {
		return
	}
	if len(c.want)-c.off < n {
		c.failf("rebuilt bytes run past the payload's %d", len(c.want))
		return
	}
	for _, v := range c.want[c.off : c.off+n] {
		if v != 0 {
			c.failf("rebuilt bytes differ from the payload at or after byte %d", c.off)
			return
		}
	}
	c.off += n
}

func (c *checkSink) start(n int) error {
	if n != len(c.want) {
		return c.failf("delta rebuilds %d bytes, the payload holds %d", n, len(c.want))
	}
	c.match(streamHeader)
	c.sum = headerSum
	return c.err
}

// open matches a frame's tag and steps over its length field, which seal
// checks once the payload is matched; it returns the frame's offset.
func (c *checkSink) open(tag string) int {
	start := c.off
	if c.err == nil && (len(c.want)-c.off < 8 || string(c.want[c.off:c.off+4]) != tag) {
		c.failf("rebuilt section %q differs from the payload's at byte %d", tag, c.off)
	}
	if c.err == nil {
		c.off += 8
	}
	return start
}

// seal checks the length and CRC fields of the frame at start, whose payload
// with CRC32-C sum has been matched, and folds the frame into the running
// CRC, as Writer.seal writes and folds them.
func (c *checkSink) seal(tag string, start int, sum uint32) error {
	if c.err != nil {
		return c.err
	}
	n := c.off - start - 8
	if uint64(n) > math.MaxUint32 || len(c.want)-c.off < 4 ||
		binary.LittleEndian.Uint32(c.want[start+4:]) != uint32(n) ||
		binary.LittleEndian.Uint32(c.want[c.off:]) != frameCRC(c.want[start:start+4], sum, n) {
		return c.failf("rebuilt frame of section %q differs from the payload's at byte %d", tag, start)
	}
	c.off += 4
	c.sum = appendFrameSum(c.sum, c.want[start:c.off], sum)
	return nil
}

func (c *checkSink) openNested(tag string) (int, error) {
	start := c.open(tag)
	c.match(streamHeader)
	c.outer = append(c.outer, c.sum)
	c.sum = headerSum
	return start, c.err
}

func (c *checkSink) closeNested(tag string, start int) error {
	c.Frame(EndTag, nil, 0)
	inner := c.sum
	c.sum = c.outer[len(c.outer)-1]
	c.outer = c.outer[:len(c.outer)-1]
	return c.seal(tag, start, inner)
}

func (c *checkSink) Frame(tag string, payload []byte, sum uint32) error {
	start := c.open(tag)
	c.match(payload)
	return c.seal(tag, start, sum)
}

func (c *checkSink) patch(tag string, base []byte, size int, pd *Decoder, chunk int) error {
	start := c.open(tag)
	lo, pos := c.off, 0
	// gap matches the leaf from pos up to to as the buildSink lays it down
	// before any chunk: the base's bytes, then zeros.
	gap := func(to int) {
		if k := min(to, len(base)); pos < k {
			c.match(base[pos:k])
			pos = k
		}
		if pos < to {
			c.zeros(to - pos)
			pos = to
		}
	}
	if err := eachChunk(pd, size, chunk, func(at int, p []byte) {
		gap(at)
		c.match(p)
		pos = at + len(p)
	}); err != nil {
		return err
	}
	gap(size)
	if c.err == nil { // else sticky: Close reports it
		c.seal(tag, start, Checksum(c.want[lo:c.off]))
	}
	return nil
}

func (c *checkSink) Close() error {
	c.Frame(EndTag, nil, 0)
	if c.err == nil && c.off != len(c.want) {
		c.failf("rebuilt %d bytes of the payload's %d", c.off, len(c.want))
	}
	return c.err
}

func (c *checkSink) result() ([]byte, uint32) { return c.want[:c.off], c.sum }

// checkDelta is the lineage's self-check: it runs applyDelta in compare
// mode, so it fails unless the delta, applied to baseData (parsed as base),
// rebuilds want byte for byte.
func checkDelta(want, baseData []byte, base *deltaNode, delta []byte) error {
	_, _, err := applyDelta(&checkSink{want: want}, baseData, base, delta)
	return err
}

// eachChunk walks one PTCH section's chunks over a leaf of size bytes,
// handing each chunk's offset in the leaf and its bytes to f. Chunks must
// come in ascending index order, as the encoder writes them, each within the
// leaf and exactly its extent long.
func eachChunk(pd *Decoder, size, chunk int, f func(at int, p []byte)) error {
	nPatch := pd.Count(8)
	prev := -1
	for k := 0; k < nPatch; k++ {
		idx := int(pd.U32())
		ln := int(pd.U32())
		b := pd.take(ln, "patch chunk")
		if pd.Err() != nil {
			return pd.Err()
		}
		lo := idx * chunk
		if lo < 0 || lo > size || lo+ln > size {
			pd.Failf("patch chunk %d ([%d,%d)) outside leaf of %d bytes", idx, lo, lo+ln, size)
			return pd.Err()
		}
		if wantLn := min(chunk, size-lo); ln != wantLn {
			pd.Failf("patch chunk %d carries %d bytes, extent is %d", idx, ln, wantLn)
			return pd.Err()
		}
		if idx <= prev {
			pd.Failf("patch chunk %d after chunk %d: chunks out of order", idx, prev)
			return pd.Err()
		}
		prev = idx
		f(lo, b)
	}
	return pd.Done()
}
