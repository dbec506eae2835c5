package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
)

// CRC32-C arithmetic for nested frames. A frame's CRC covers its tag and
// payload; when the payload is itself a container, its CRC follows from the
// CRCs of the frames inside it, so a nested checkpoint is read once, at its
// leaves, instead of once per enclosing frame. The combine is zlib's
// crc32_combine (multmodp/x2nmodp) over the reflected Castagnoli polynomial:
// with CRCs in their usual pre- and post-inverted form,
//
//	crc(A‖B) = crcShift(crc(A), len(B)) ⊕ crc(B)
//
// where crcShift multiplies by x^(8·len(B)) modulo the polynomial, in
// O(log len(B)) table steps.

const castagnoliReflected = 0x82F63B78

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// x2nTable[k] is x^(2^k) modulo the polynomial.
var x2nTable = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	t[0] = p
	for k := 1; k < 32; k++ {
		p = multModP(p, p)
		t[k] = p
	}
	return t
}()

// multModP returns a·b modulo the polynomial (reflected bit order: x^0 is the
// top bit).
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				break
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ castagnoliReflected
		} else {
			b >>= 1
		}
	}
	return p
}

// crcShift returns crc multiplied by x^(8·n): the term crc(A) contributes to
// crc(A‖B) when len(B) is n.
func crcShift(crc uint32, n int) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2nTable[k&31], p)
		}
	}
	return multModP(p, crc)
}

// Checksum returns the CRC32-C of b — the same polynomial that guards every
// section frame.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// frameCRC is the CRC a frame stores — over its 4-byte tag and its payload —
// from the CRC of the n-byte payload alone.
func frameCRC(tag []byte, sum uint32, n int) uint32 {
	return crcShift(Checksum(tag), n) ^ sum
}

// appendFrameSum extends the running CRC of a container by one whole frame
// (8-byte header, payload, 4-byte stored CRC) whose payload's CRC is sum,
// reading only the frame's 12 bytes of framing.
func appendFrameSum(running uint32, frame []byte, sum uint32) uint32 {
	running = crcShift(crc32.Update(running, crcTable, frame[:8]), len(frame)-12) ^ sum
	return crc32.Update(running, crcTable, frame[len(frame)-4:])
}

// containerSum returns the CRC32-C of b, a container just built by a Writer,
// from the CRCs its frames store: O(frames) work instead of a read of every
// byte. Each stored CRC is the CRC of its frame's tag and payload, so the
// result is exact for any container whose frames are intact. Anything that
// is not a well-formed container is summed the slow way.
func containerSum(b []byte) uint32 {
	if len(b) < 10 || !bytes.Equal(b[:8], magic[:]) {
		return Checksum(b)
	}
	running := Checksum(b[:10])
	for off := 10; ; {
		if len(b)-off < 8 {
			return Checksum(b)
		}
		hdr := b[off : off+8]
		n := int(binary.LittleEndian.Uint32(hdr[4:]))
		if len(b)-off-8 < n+4 {
			return Checksum(b)
		}
		stored := binary.LittleEndian.Uint32(b[off+8+n:])
		sum := stored ^ crcShift(Checksum(hdr[:4]), n) // the payload's own CRC
		running = appendFrameSum(running, b[off:off+12+n], sum)
		off += 12 + n
		if string(hdr[:4]) == EndTag {
			if off != len(b) {
				return Checksum(b)
			}
			return running
		}
	}
}
