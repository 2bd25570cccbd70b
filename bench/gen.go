package main

import (
	"encoding/binary"
	"hash/fnv"
)

// The seed drives only the bench's generators — which key a client picks
// next and what bytes an entry holds. The program under test receives the
// generated inputs, never the seed.

// splitmix64 is the seed scrambler (same finaliser the fault injector uses).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// payloadSeed identifies one version of one entry.
func payloadSeed(seed int64, key, version uint64) uint64 {
	s := splitmix64(uint64(seed)) ^ splitmix64(key+0x51ed27) ^ splitmix64(version<<1|1)
	if s == 0 {
		s = 1 // xorshift's fixed point
	}
	return s
}

// fillPayload writes the incompressible payload for s into dst (a multiple
// of 8 bytes): an xorshift64 stream, cheap enough to regenerate on every
// read so no expected copy has to be kept.
func fillPayload(dst []byte, s uint64) {
	for i := 0; i+8 <= len(dst); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(dst[i:], s)
	}
}

// reuse returns the buffer to build the next payload in: buf itself, so the
// generator allocates nothing per op. A put has returned by then, so the
// fabric is done with buf — but the detector cannot see that ordering (it
// rides on the peer's reply, and syscall.Write annotates its read of the
// buffer after its release), so under -race every payload gets a fresh
// buffer instead, the same degradation tcpnet's flush applies.
func reuse(buf []byte) []byte {
	if raceEnabled {
		return make([]byte, len(buf))
	}
	return buf
}

// checkPayload reports whether got is exactly the payload fillPayload
// produces for s.
func checkPayload(got []byte, s uint64) bool {
	if len(got)%8 != 0 {
		return false
	}
	for i := 0; i+8 <= len(got); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if binary.LittleEndian.Uint64(got[i:]) != s {
			return false
		}
	}
	return true
}

// rng is the per-client key-choice generator: xorshift64 again, so a
// client's op sequence is a pure function of (seed, client index).
type rng struct{ s uint64 }

func newRNG(seed int64, client int) *rng {
	return &rng{s: payloadSeed(seed, uint64(client)+0xc11e27, 0)}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// opseqLen is how many leading ops of each client feed opseq_hash. Runs are
// time-bounded, so only a prefix every run is sure to reach can repeat.
const opseqLen = 128

// opSeq hashes the first opseqLen ops a client issues.
type opSeq struct {
	n   int
	buf []byte
}

func (o *opSeq) note(kind byte, key, version uint64) {
	if o.n >= opseqLen {
		return
	}
	o.n++
	o.buf = append(o.buf, kind)
	o.buf = binary.LittleEndian.AppendUint64(o.buf, key)
	o.buf = binary.LittleEndian.AppendUint64(o.buf, version)
}

// hashOpSeqs folds the clients' prefixes into one 32-bit figure (small
// enough to survive a float64 JSON number unchanged).
func hashOpSeqs(seqs []*opSeq) uint32 {
	h := fnv.New32a()
	for _, s := range seqs {
		h.Write(s.buf)
	}
	return h.Sum32()
}
