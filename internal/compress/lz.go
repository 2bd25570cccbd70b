package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The block codec is the public LZ4 block format and nothing else: no frame,
// no checksum, no entropy stage. A block is a run of sequences:
//
//	token     1 byte: high nibble = literal count, low nibble = match length − 4
//	          (a nibble of 15 continues in the bytes that follow, each adding
//	          0..255, until one is below 255)
//	literals  that many bytes, verbatim
//	offset    2 bytes little-endian, 1..65535: how far back in the output the
//	          match starts (it may overlap the bytes it produces)
//	          + the match-length continuation bytes, if any
//
// The last sequence stops after its literals. The block carries no lengths of
// its own: the decoder is told how many bytes to produce and the input's end
// is the block's end.
const (
	minMatch  = 4
	maxOffset = 1<<16 - 1
	// End-of-block rules of the format, which let other decoders copy in wide
	// strides: the last match starts at least 12 bytes before the end of the
	// input and the last 5 bytes are literals.
	lastMatchStart = 12
	lastLiterals   = 5
	// hashLog sizes the match finder's table: 4096 positions, one per byte of
	// a page, 16 KiB of stack cleared per call.
	hashLog = 12
	// skipLog sets how fast the search strides over incompressible input: the
	// step grows by one every 1<<skipLog misses since the last match.
	skipLog = 6
)

// Every way a block can be malformed, built once so the decoder's failure
// path allocates as little as its success path: nothing.
var (
	errTruncated = fmt.Errorf("%w: block ends inside a sequence", ErrCorrupt)
	errOverrun   = fmt.Errorf("%w: block holds more than the expected length", ErrCorrupt)
	errShort     = fmt.Errorf("%w: block holds less than the expected length", ErrCorrupt)
	errOffset    = fmt.Errorf("%w: match offset outside the output", ErrCorrupt)
)

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

func hash4(v uint32) uint32 { return (v * 2654435761) >> (32 - hashLog) }

// extraLen is how many continuation bytes a literal count or a match length
// (minus minMatch) of n needs beyond its token nibble.
func extraLen(n int) int {
	if n < 15 {
		return 0
	}
	return (n-15)/255 + 1
}

// putLen writes n's token nibble value and, at dst[d:], its continuation
// bytes; the caller has checked the room.
func putLen(dst []byte, d, n int) (nibble byte, _ int) {
	if n < 15 {
		return byte(n), d
	}
	for n -= 15; n >= 255; n -= 255 {
		dst[d] = 255
		d++
	}
	dst[d] = byte(n)
	return 15, d + 1
}

// commonPrefix counts the bytes b[i:] and b[j:] share from their starts, i < j.
func commonPrefix(b []byte, i, j int) int {
	n := 0
	for ; j+n+8 <= len(b); n += 8 {
		if x := load64(b, i+n) ^ load64(b, j+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for j+n < len(b) && b[i+n] == b[j+n] {
		n++
	}
	return n
}

// compressBlock encodes src into dst and returns the block's length, or false
// when the block does not fit in dst — dst is the caller's size limit as well
// as its buffer. Greedy single-probe hash matching; the output for a given
// src is always the same bytes.
func compressBlock(dst, src []byte) (int, bool) {
	// table maps the hash of four bytes to the last position they were seen
	// at. Zero doubles as "empty": position 0 is a legitimate candidate for
	// every later position, and a candidate is only ever believed after its
	// four bytes compare equal.
	var table [1 << hashLog]int32
	anchor, d := 0, 0 // start of the pending literals; write position
	searchEnd := len(src) - lastMatchStart
	matchEnd := len(src) - lastLiterals
sequences:
	for s := 1; s <= searchEnd; {
		// Probe from s on, striding wider the longer nothing turns up.
		var ref int
		for misses := 1 << skipLog; ; misses++ {
			v := load32(src, s)
			h := hash4(v)
			ref = int(table[h])
			table[h] = int32(s)
			if s-ref <= maxOffset && load32(src, ref) == v {
				break
			}
			if s += misses >> skipLog; s > searchEnd {
				break sequences
			}
		}
		// Striding may have stepped over the match's first bytes.
		for s > anchor && ref > 0 && src[s-1] == src[ref-1] {
			s--
			ref--
		}
		n := minMatch + commonPrefix(src[:matchEnd], ref+minMatch, s+minMatch)
		lits := src[anchor:s]
		if d+1+extraLen(len(lits))+len(lits)+2+extraLen(n-minMatch) > len(dst) {
			return 0, false
		}
		token := d
		litNibble, at := putLen(dst, d+1, len(lits))
		at += copy(dst[at:], lits)
		binary.LittleEndian.PutUint16(dst[at:], uint16(s-ref))
		matchNibble, at := putLen(dst, at+2, n-minMatch)
		dst[token] = litNibble<<4 | matchNibble
		d = at
		s += n
		anchor = s
		if s <= searchEnd {
			table[hash4(load32(src, s-2))] = int32(s - 2)
		}
	}
	lits := src[anchor:]
	if d+1+extraLen(len(lits))+len(lits) > len(dst) {
		return 0, false
	}
	litNibble, at := putLen(dst, d+1, len(lits))
	dst[d] = litNibble << 4
	return at + copy(dst[at:], lits), true
}

// decompressBlock decodes src into dst. The bytes come back from a donor's
// memory, so it is written to a contract: it never panics, never reads or
// writes outside src and dst, allocates nothing, and returns nil only when it
// consumed all of src and produced exactly len(dst) bytes; anything else is
// an ErrCorrupt-wrapped error, with dst's contents unspecified.
func decompressBlock(dst, src []byte) error {
	s, d := 0, 0
	for s < len(src) {
		token := src[s]
		s++
		lits := int(token >> 4)
		if lits == 15 {
			var ok bool
			if lits, s, ok = readLen(src, s, len(dst)); !ok {
				return errTruncated
			}
		}
		if lits > len(src)-s {
			return errTruncated
		}
		if lits > len(dst)-d {
			return errOverrun
		}
		if lits <= 16 && len(src)-s >= 16 && len(dst)-d >= 16 {
			*(*[16]byte)(dst[d:]) = *(*[16]byte)(src[s:])
		} else {
			copy(dst[d:], src[s:s+lits])
		}
		s += lits
		d += lits
		if s == len(src) {
			if d != len(dst) {
				return errShort
			}
			return nil
		}
		if len(src)-s < 2 {
			return errTruncated
		}
		offset := int(binary.LittleEndian.Uint16(src[s:]))
		s += 2
		if offset == 0 || offset > d {
			return errOffset
		}
		n := int(token & 15)
		if n == 15 {
			var ok bool
			if n, s, ok = readLen(src, s, len(dst)); !ok {
				return errTruncated
			}
		}
		n += minMatch
		if n > len(dst)-d {
			return errOverrun
		}
		// m runs from the match's first byte to the last byte it produces. Its
		// first offset bytes are already there; every copy doubles them, which
		// is what an overlapping match means.
		if n <= 16 && offset >= 16 && len(dst)-d >= 16 {
			*(*[16]byte)(dst[d:]) = *(*[16]byte)(dst[d-offset:])
		} else {
			m := dst[d-offset : d+n]
			for have := offset; have < len(m); {
				have += copy(m[have:], m[:have])
			}
		}
		d += n
	}
	// Empty, or the input ran out right after a match: a block ends in literals.
	return errTruncated
}

// readLen reads the continuation of a length whose nibble was 15, from
// src[s:]. It stops early, with a value the caller's bound check rejects,
// once the length exceeds limit, so a long run of 255s cannot overflow it.
func readLen(src []byte, s, limit int) (n, next int, ok bool) {
	n = 15
	for s < len(src) {
		b := src[s]
		s++
		n += int(b)
		if b != 255 || n > limit {
			return n, s, true
		}
	}
	return 0, s, false
}
