// Package snapshot is the wire format of the checkpoint/restore subsystem: a
// versioned, self-describing binary container that the engine, the event
// queue and every scheduling policy serialize their state into, so a live
// streaming session can be frozen to durable storage and reconstructed
// bit-identically in a fresh process (see internal/engine's Snapshot/Restore
// and DESIGN.md).
//
// Layout:
//
//	file    = magic(8) version(u16 LE) section* end
//	section = tag(4 ASCII bytes) length(u32 LE) payload crc32c(u32 LE)
//	end     = "END\x00" 0 crc32c
//
// The CRC (Castagnoli polynomial) covers tag and payload of each section, so
// a flipped bit anywhere in a frame is detected before any of its bytes are
// interpreted. Sections are length-prefixed and the per-section Decoder is
// bounds-checked on every primitive read, so truncated or corrupted input
// fails with a positioned error ("section "JOBS": byte 17: …") — it can
// never misparse into a plausible-looking wrong state. The Reader walks one
// in-memory slice, so a frame length beyond the remaining bytes fails before
// anything is allocated, and count prefixes are validated against the bytes
// remaining in the section before any slice is allocated: a hostile length
// cannot balloon memory.
//
// All integers are little-endian and fixed-width; float64s are serialized as
// their IEEE-754 bit patterns (math.Float64bits), which makes encode→decode
// exact for every value including ±Inf, NaN payloads and signed zeros — the
// foundation of the bit-identical-resume guarantee.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Version is the format version this build writes. Readers reject files with
// a newer version (forward compatibility is not attempted: a snapshot is a
// process-restart artifact, not an archival format).
const Version = 1

// magic identifies a snapshot stream.
var magic = [8]byte{'S', 'C', 'H', 'S', 'N', 'A', 'P', 0}

// EndTag terminates the section stream.
const EndTag = "END\x00"

// Encoder appends one section's payload. Writer.Section hands one to its
// fill, appending straight into the frame being written.
type Encoder struct {
	buf []byte
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian two's-complement int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an I64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends the IEEE-754 bit pattern of v, exact for every float64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a u32 length prefix and the raw bytes of s.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends b verbatim, without a length prefix — for sections whose whole
// payload is an embedded byte blob; the section frame itself carries the
// length.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Extend appends n bytes and returns them for the caller to fill in place:
// a run of fixed-size records takes one capacity check, and each field is
// written at its fixed offset with binary.LittleEndian.Put*. The bytes are
// not cleared first, so the caller writes every one of them.
func (e *Encoder) Extend(n int) []byte {
	l := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:l+n]
	return e.buf[l : l+n : l+n]
}

// Bytes returns what e has appended since it was last Reset: the payload of
// a section encoded outside any Writer, such as a session's policy section,
// which a capture encodes before it can size the snapshot around it.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties e, keeping its storage for the next payload.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// HeaderBytes and FrameBytes are a container's fixed overheads: the stream
// header, and the tag, length and CRC around each section's payload (the end
// section is one more frame). They let a writer size its buffer for a
// container before encoding it.
const (
	HeaderBytes = 10
	FrameBytes  = 12
)

// Grow is the growth rule of every checkpoint buffer: it returns dst with
// room for n more bytes. When dst lacks the room, its bytes move once into a
// fresh buffer with room for max(n+n/2, want) more. A buffer that a growing
// stream refills is therefore reallocated once per half again of growth, or
// not at all while want (the size a hint predicts, or the capacity of the
// buffer it copies) covers the stream.
func Grow(dst []byte, n, want int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	b := make([]byte, len(dst), len(dst)+max(n+n/2, want))
	copy(b, dst)
	return b
}

// Writer frames sections in place: a section reserves its 8-byte header in
// the output, the payload is appended directly after it, and the frame is
// closed by patching in the length and appending the CRC. Every payload byte
// is therefore encoded once, into its final position, and CRC'd once: a
// section's payload is read when its frame is sealed, and a frame around a
// nested container seals from the container's CRC — the running sum the
// Writer keeps of it (openNested), or the sum its frames already store (Nest)
// — never by reading the nested bytes again (see crc.go).
//
// AppendWriter builds the whole container in one caller-owned slice (a
// checkpoint capture buffer that is reused across captures); a caller that
// wants the stream on an io.Writer writes Bytes once at the end.
//
// Errors are sticky: the first failure poisons every later call, so callers
// may check once at Close.
type Writer struct {
	enc    Encoder  // the output
	sum    uint32   // running CRC32-C of the innermost open container
	outer  []uint32 // running CRCs of the containers enclosing it (openNested)
	err    error
	closed bool
}

// appendHeader appends the stream header (magic and version).
func appendHeader(b []byte) []byte {
	b = append(b, magic[:]...)
	return binary.LittleEndian.AppendUint16(b, Version)
}

// streamHeader is the stream header, and headerSum its CRC32-C.
var (
	streamHeader = appendHeader(nil)
	headerSum    = Checksum(streamHeader)
)

// AppendWriter returns a section writer that appends the stream header and
// then every section to dst. Bytes returns the result.
func AppendWriter(dst []byte) *Writer {
	return &Writer{enc: Encoder{buf: appendHeader(dst)}, sum: headerSum}
}

// Bytes returns what an AppendWriter has built: dst followed by the stream
// so far (the whole container once Close has returned nil).
func (sw *Writer) Bytes() []byte { return sw.enc.buf }

// Section encodes one section: fill appends the payload, then the frame
// (tag, length, payload, CRC) is closed. tag must be exactly 4 bytes.
func (sw *Writer) Section(tag string, fill func(e *Encoder)) error {
	start, err := sw.open(tag)
	if err != nil {
		return err
	}
	fill(&sw.enc)
	return sw.seal(tag, start, Checksum(sw.enc.buf[start+8:]))
}

// Frame writes one section whose payload is already encoded and whose
// CRC32-C, sum, is already known (a leaf of a parsed container), copying the
// payload straight into the frame. sum must be Checksum(payload): the frame
// stores the CRC derived from it without reading the payload.
func (sw *Writer) Frame(tag string, payload []byte, sum uint32) error {
	start, err := sw.open(tag)
	if err != nil {
		return err
	}
	sw.enc.buf = append(sw.enc.buf, payload...)
	return sw.seal(tag, start, sum)
}

// Nest writes one section whose payload fill appends to dst in place — a
// nested container built by an append-style encoder such as
// engine.Shard.AppendSnapshot — so the nested bytes land in their final
// position with no intermediate buffer. fill returns dst extended by the
// payload; its error poisons the writer. The frame's CRC comes from the CRCs
// the nested container's frames store, so its bytes are not read again.
func (sw *Writer) Nest(tag string, fill func(dst []byte) ([]byte, error)) error {
	start, err := sw.open(tag)
	if err != nil {
		return err
	}
	b, err := fill(sw.enc.buf)
	if err != nil {
		sw.err = err
		return err
	}
	sw.enc.buf = b
	return sw.seal(tag, start, containerSum(b[start+8:]))
}

// NestEach writes one section tagged tag per entry of sizes, each a nested
// container of exactly sizes[k] bytes that fill encodes in place: the frames
// are laid out first, fill gets every payload region at once — so it may
// encode them concurrently, and must fill each one completely — and the
// frames are then sealed in order, each from the CRCs its nested container's
// frames store, so no payload byte is read again. fill's error poisons the
// writer.
func (sw *Writer) NestEach(tag string, sizes []int, fill func(payloads [][]byte) error) error {
	starts := make([]int, len(sizes))
	for k, n := range sizes {
		start, err := sw.open(tag)
		if err != nil {
			return err
		}
		starts[k] = start
		sw.enc.Extend(n + 4) // the payload and the frame's CRC
	}
	payloads := make([][]byte, len(sizes))
	for k, n := range sizes {
		at := starts[k] + 8
		payloads[k] = sw.enc.buf[at : at+n : at+n]
	}
	if err := fill(payloads); err != nil {
		sw.err = err
		return err
	}
	for k, p := range payloads {
		if err := sw.sealAt(tag, starts[k], len(p), containerSum(p)); err != nil {
			return err
		}
	}
	return nil
}

// open reserves a frame header for tag and returns its offset in enc.buf.
func (sw *Writer) open(tag string) (int, error) {
	if len(tag) != 4 {
		panic(fmt.Sprintf("snapshot: section tag %q must be exactly 4 bytes", tag))
	}
	if sw.err != nil {
		return 0, sw.err
	}
	if sw.closed {
		sw.err = fmt.Errorf("snapshot: section %q after Close", tag)
		return 0, sw.err
	}
	start := len(sw.enc.buf)
	sw.enc.buf = append(append(sw.enc.buf, tag...), 0, 0, 0, 0)
	return start, nil
}

// seal closes the frame opened at start, whose payload has CRC32-C sum: it
// patches the payload length into the header, appends the frame's CRC over
// tag and payload, and folds the frame into the container's running CRC.
func (sw *Writer) seal(tag string, start int, sum uint32) error {
	n := len(sw.enc.buf) - start - 8
	sw.enc.buf = append(sw.enc.buf, 0, 0, 0, 0)
	return sw.sealAt(tag, start, n, sum)
}

// sealAt closes the frame at start whose n-byte payload and CRC slot are
// already in place: seal's work for a frame NestEach laid out.
func (sw *Writer) sealAt(tag string, start, n int, sum uint32) error {
	b := sw.enc.buf
	if uint64(n) > math.MaxUint32 {
		sw.err = fmt.Errorf("snapshot: section %q payload of %d bytes exceeds the u32 frame limit", tag, n)
		return sw.err
	}
	binary.LittleEndian.PutUint32(b[start+4:], uint32(n))
	binary.LittleEndian.PutUint32(b[start+8+n:], frameCRC(b[start:start+4], sum, n))
	sw.sum = appendFrameSum(sw.sum, b[start:start+12+n], sum)
	return nil
}

// openNested opens a section whose payload is a nested container, writing
// the container's stream header; the sections that follow land inside it
// until closeNested.
func (sw *Writer) openNested(tag string) (int, error) {
	start, err := sw.open(tag)
	if err != nil {
		return 0, err
	}
	sw.enc.buf = appendHeader(sw.enc.buf)
	sw.outer = append(sw.outer, sw.sum)
	sw.sum = headerSum
	return start, nil
}

// closeNested ends the nested container opened at start with its end
// section and seals the enclosing frame from the nested container's running
// CRC.
func (sw *Writer) closeNested(tag string, start int) error {
	end, err := sw.open(EndTag)
	if err != nil {
		return err
	}
	if err := sw.seal(EndTag, end, 0); err != nil {
		return err
	}
	inner := sw.sum
	sw.sum = sw.outer[len(sw.outer)-1]
	sw.outer = sw.outer[:len(sw.outer)-1]
	return sw.seal(tag, start, inner)
}

// Close writes the end section.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return nil
	}
	start, err := sw.open(EndTag)
	if err != nil {
		return err
	}
	sw.closed = true
	return sw.seal(EndTag, start, 0)
}

// Reader walks the sections of a snapshot held in one byte slice. Payloads
// are never copied: every Decoder reads a subslice of the input, and a nested
// container (Decoder.Rest) is a subslice too, so restoring it is another walk
// over the same bytes.
//
// Lifetime rule: a payload aliases the input. A caller that keeps payload
// bytes past the input's lifetime — or hands the input to code that will
// modify it — copies them first. Decoded scalars and strings are copies and
// carry no such rule.
//
// A tag appearing twice is rejected by default: no writer in this repository
// emits the same section twice at one nesting level except the fleet's SHRD
// frames, and a duplicated section in anyone else's stream means a corrupt or
// hostile file whose second copy would otherwise silently win (or lose)
// depending on caller order. Walkers over legitimately repeated tags opt in
// via Repeatable.
type Reader struct {
	data   []byte
	off    int
	ended  bool
	seen   map[string]bool
	repeat map[string]bool
	anyDup bool
}

// Repeatable registers tags that may legally appear more than once (e.g. the
// fleet snapshot's per-shard "SHRD" frames). Every other tag stays
// once-only.
func (sr *Reader) Repeatable(tags ...string) {
	if sr.repeat == nil {
		sr.repeat = make(map[string]bool, len(tags))
	}
	for _, t := range tags {
		sr.repeat[t] = true
	}
}

// AllowDuplicates disables duplicate-section rejection entirely — for
// generic structural walkers (delta encoding) that traverse containers whose
// section vocabulary they do not know. Semantic restores never use this.
func (sr *Reader) AllowDuplicates() { sr.anyDup = true }

// InPlace returns an io.Reader over b that NewReader walks without copying:
// every payload of the resulting Reader aliases b (see Reader's lifetime
// rule). Other consumers read it like a bytes.Reader.
func InPlace(b []byte) io.Reader { return &inPlace{b: b} }

type inPlace struct {
	b   []byte
	off int
}

func (r *inPlace) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

// NewReader materialises r once and checks the stream header. An InPlace
// reader is walked where it lies; any other reader is read to its end, in one
// allocation when it reports its length and writes itself out (bytes.Reader,
// bytes.Buffer, strings.Reader).
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{}
	if err := readAll(r, &sr.data); err != nil {
		return nil, fmt.Errorf("snapshot: reading: %w", err)
	}
	if err := sr.header(); err != nil {
		return nil, err
	}
	return sr, nil
}

// readAll sets *dst to r's remaining bytes, aliasing them for an InPlace
// reader. A reader that reports its length and writes itself out hands its
// bytes to one append into the nil *dst: that allocates them once and, unlike
// a buffer presized for them, does not zero what it then copies over.
func readAll(r io.Reader, dst *[]byte) error {
	if ip, ok := r.(*inPlace); ok {
		*dst = ip.b[min(ip.off, len(ip.b)):]
		ip.off = len(ip.b)
		return nil
	}
	if _, ok := r.(interface{ Len() int }); ok {
		if wt, ok := r.(io.WriterTo); ok {
			_, err := wt.WriteTo((*appendWriter)(dst))
			return err
		}
	}
	b, err := io.ReadAll(r)
	*dst = b
	return err
}

// appendWriter is an io.Writer that appends to the slice it points at.
type appendWriter []byte

func (w *appendWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// newReader checks the stream header of data and returns a Reader over it.
func newReader(data []byte) (*Reader, error) {
	sr := &Reader{data: data}
	if err := sr.header(); err != nil {
		return nil, err
	}
	return sr, nil
}

// header checks the stream header and steps past it.
func (sr *Reader) header() error {
	data := sr.data
	if len(data) < HeaderBytes {
		return fmt.Errorf("snapshot: reading header: %w", errTruncated)
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return fmt.Errorf("snapshot: bad magic %q (not a snapshot stream)", data[:8])
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != Version {
		return fmt.Errorf("snapshot: unsupported format version %d (this build reads version %d)", v, Version)
	}
	sr.off = 10
	return nil
}

// errTruncated is the one descriptive truncation error, so callers never
// mistake a mid-frame end of input for a clean end of stream.
var errTruncated = errors.New("unexpected end of snapshot (truncated)")

// Next reads the next section frame, verifies its CRC and returns its tag
// and a Decoder over the payload. At the end section it returns io.EOF after
// checking that no trailing bytes follow. A length prefix beyond the bytes
// remaining fails here, before anything is allocated.
func (sr *Reader) Next() (string, *Decoder, error) {
	tag, payload, stored, err := sr.frame()
	if err != nil {
		return "", nil, err
	}
	sum := Checksum(payload)
	if err := sr.accept(tag, payload, stored, sum); err != nil {
		return "", nil, err
	}
	return tag, &Decoder{tag: tag, buf: payload, sum: sum}, nil
}

// frame splits the next section frame off the input without verifying it:
// its tag, its payload and the CRC it stores. It returns io.EOF once the end
// section has been accepted.
func (sr *Reader) frame() (string, []byte, uint32, error) {
	if sr.ended {
		return "", nil, 0, io.EOF
	}
	rest := sr.data[sr.off:]
	if len(rest) < 8 {
		return "", nil, 0, fmt.Errorf("snapshot: reading section header: %w", errTruncated)
	}
	tag := string(rest[:4])
	n := uint64(binary.LittleEndian.Uint32(rest[4:8]))
	if avail := uint64(len(rest) - 8); n > avail {
		return "", nil, 0, fmt.Errorf("snapshot: section %q: payload truncated (want %d bytes, %d remain): %w", tag, n, avail, errTruncated)
	}
	end := 8 + int(n)
	payload := rest[8:end:end] // capped: an append through it cannot clobber the CRC
	if len(rest)-end < 4 {
		return "", nil, 0, fmt.Errorf("snapshot: section %q: reading checksum: %w", tag, errTruncated)
	}
	return tag, payload, binary.LittleEndian.Uint32(rest[end:]), nil
}

// accept checks the frame that frame split off against sum, the CRC32-C of
// its payload, and steps past it. At the end section it returns io.EOF after
// checking that no trailing bytes follow.
func (sr *Reader) accept(tag string, payload []byte, stored, sum uint32) error {
	if got := frameCRC(sr.data[sr.off:sr.off+4], sum, len(payload)); got != stored {
		return fmt.Errorf("snapshot: section %q: checksum mismatch (stored %08x, computed %08x): snapshot corrupted", tag, stored, got)
	}
	sr.off += 12 + len(payload)
	if tag == EndTag {
		sr.ended = true
		if len(payload) != 0 {
			return fmt.Errorf("snapshot: end section carries %d payload bytes", len(payload))
		}
		if sr.off != len(sr.data) {
			return fmt.Errorf("snapshot: trailing data after end section")
		}
		return io.EOF
	}
	if !sr.anyDup && !sr.repeat[tag] {
		if sr.seen[tag] {
			return fmt.Errorf("snapshot: duplicate section %q: snapshot corrupted", tag)
		}
		if sr.seen == nil {
			sr.seen = make(map[string]bool, 8)
		}
		sr.seen[tag] = true
	}
	return nil
}

// Remaining returns the number of input bytes after the sections read so
// far: a bound on what every later section holds, against which a count
// declared ahead of the section that carries its records is checked before
// anything is sized by it.
func (sr *Reader) Remaining() int { return len(sr.data) - sr.off }

// Section reads the next section and requires its tag, enforcing the strict
// section order the engine writes.
func (sr *Reader) Section(tag string) (*Decoder, error) {
	got, d, err := sr.Next()
	if err == io.EOF {
		return nil, fmt.Errorf("snapshot: want section %q, stream already ended", tag)
	}
	if err != nil {
		return nil, err
	}
	if got != tag {
		return nil, fmt.Errorf("snapshot: want section %q, found %q", tag, got)
	}
	return d, nil
}

// End requires the end section (and nothing after it).
func (sr *Reader) End() error {
	got, _, err := sr.Next()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	return fmt.Errorf("snapshot: want end of stream, found section %q", got)
}

// Decoder reads one section's payload with sticky, positioned errors: the
// first failed read records an error naming the section and byte offset, and
// every later read returns the zero value. Callers check Err (or Done) once
// per group of reads instead of after every primitive.
type Decoder struct {
	tag string
	buf []byte
	off int
	err error
	sum uint32 // CRC32-C of the whole payload, as verified by Reader.Next
}

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done verifies the section decoded cleanly and was consumed exactly: sticky
// errors surface here, and unread trailing bytes — a version-drift symptom —
// fail loudly instead of being silently ignored.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snapshot: section %q: %d trailing bytes after the last field", d.tag, len(d.buf)-d.off)
	}
	return nil
}

// fail records the first error with its position.
func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: section %q: byte %d: truncated %s", d.tag, d.off, what)
	}
}

// Failf records the first error with its position (for semantic validation
// by callers, e.g. an out-of-range index).
func (d *Decoder) Failf(format string, args ...any) { d.FailAt(d.off, format, args...) }

// FailAt is Failf positioned at payload byte off rather than at the current
// offset: a check on one record of a run read with Span reports the byte
// after that record, where reading its fields one at a time would stand.
func (d *Decoder) FailAt(off int, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: section %q: byte %d: %s", d.tag, off, fmt.Sprintf(format, args...))
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Offset returns the payload offset of the next unread byte.
func (d *Decoder) Offset() int { return d.off }

// Span returns the next n payload bytes as one slice and steps past them —
// the counterpart of Encoder.Extend: a run of fixed-size records whose count
// Count has bounded takes one bounds check, and each field is read at its
// fixed offset with binary.LittleEndian. It fails like every read, with the
// section's positioned error, and returns nil after any error. The slice
// aliases the payload (see Reader's lifetime rule).
func (d *Decoder) Span(n int) []byte {
	if n < 0 {
		d.Failf("span of %d bytes", n)
		return nil
	}
	return d.take(n, "record run")
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool, rejecting values other than 0 and 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("invalid bool byte %d", v)
		return false
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian two's-complement int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an I64 and narrows it to int, failing if it does not fit.
func (d *Decoder) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.Failf("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// F64 reads an IEEE-754 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a u32-length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U32()
	if d.err == nil && int(n) > d.Remaining() {
		d.Failf("string of %d bytes exceeds the %d remaining in the section", n, d.Remaining())
		return ""
	}
	b := d.take(int(n), "string")
	return string(b)
}

// Rest consumes and returns every unread payload byte — the counterpart of
// Encoder.Raw. It returns nil after any earlier error.
func (d *Decoder) Rest() []byte {
	return d.take(d.Remaining(), "raw payload")
}

// Count reads a u64 element count and validates it against the bytes
// remaining in the section (each element needs at least elemBytes), so a
// corrupt count can never drive a huge allocation or a long loop. It returns
// 0 after any error.
func (d *Decoder) Count(elemBytes int) int {
	if elemBytes < 1 {
		elemBytes = 1
	}
	v := d.U64()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.Remaining()/elemBytes) {
		d.Failf("count %d exceeds the %d bytes remaining in the section", v, d.Remaining())
		return 0
	}
	return int(v)
}
