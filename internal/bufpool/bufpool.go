// Package bufpool is the repository's shared size-classed frame buffer pool.
// It backs every layer of the zero-copy data plane — the TCP transport's
// request payloads, read responses and call answers, the core client's put
// and release requests and compressed-read scratch, the donor's put answers,
// and the transport helpers' gather fallback — so a steady-state read or
// write recycles its transient buffers instead of allocating them per
// operation.
//
// # Ownership contract
//
// Every buffer in the system is in exactly one of three states, and the rules
// below say who may move it between them:
//
//  1. Pooled. Get(n) hands out a length-n buffer drawn from the size class
//     that fits it. The caller becomes the owner.
//  2. Owned. The owner may read and write the buffer freely and may transfer
//     ownership (return it from a function, hand it to a channel). Exactly
//     one owner exists at a time; the transfer must be explicit.
//  3. Released. Put(b) returns an owned buffer to its class. After Put the
//     caller must not touch b again — another goroutine may already own it.
//
// Releasing is always optional: an owner that retains a buffer indefinitely
// (or hands it to application code with no release obligation) simply strands
// one pooled buffer, which the garbage collector reclaims. Double-release is
// the only misuse that corrupts data, so the contract every layer follows is:
// release only buffers you own, and never after ownership was transferred.
// Buffers that did not come from Get (wrong capacity for their class) are
// silently dropped by Put, so a conservative caller may Put any buffer whose
// provenance it knows is "mine and dead".
//
// Two transfers cross the transport boundary (transport.Handler and
// transport.Verbs say the same from their side):
//
//   - A handler's answer is handed to the fabric with the return. The TCP
//     fabric Puts it after the flush that writes it to the wire, so a handler
//     answers with memory it gives up: fresh, drawn from Get, or a view of its
//     request payload — which Overlaps detects and which is released once,
//     with the payload. A slice the handler keeps sharing read-only is safe
//     only when Put drops it (capacity below MinBuf).
//   - A call's answer belongs to the caller, which may Put it once it has
//     decoded it. The TCP fabric lands answers in buffers from Get.
//

// # Checking the contract
//
// Built with -tags bufdebug, the pool enforces what it can observe: Put fills
// the released buffer with a poison byte and panics if the buffer is already
// in the pool (double release), Get panics if the poison was disturbed while
// the buffer sat there (write after release), and a read after release yields
// poison, which any test that verifies its bytes trips over. CI runs the
// transport conformance and chaos suites that way. Without the tag the hooks
// compile to nothing.
//
// Size classes are powers of two from 4 KiB to 4 MiB; requests above the top
// class allocate directly (rare: bulk transfers), smaller ones ride in the
// 4 KiB class so a page-sized op never hands back a multi-megabyte buffer.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

const (
	// MinBuf is the smallest pooled capacity; smaller requests share it.
	MinBuf = 4 << 10
	// MaxBuf is the largest pooled capacity; larger requests allocate.
	MaxBuf = 4 << 20

	classes = 11 // MinBuf << 10 == MaxBuf
)

var pools [classes]sync.Pool

// boxes recycles the *[]byte containers buffers ride in while pooled. Without
// this, every Put would heap-allocate a fresh slice-header box (and every Get
// discard one), costing exactly the one allocation per op the pool exists to
// avoid.
var boxes = sync.Pool{New: func() any { return new([]byte) }}

// classFor returns the smallest class whose buffers hold n bytes.
func classFor(n int) int {
	if n <= MinBuf {
		return 0
	}
	c := bits.Len(uint(n-1)) - bits.Len(uint(MinBuf)) + 1
	if c >= classes {
		return classes - 1
	}
	return c
}

// Get returns a length-n buffer, reusing a pooled one when available. The
// contents are unspecified (buffers are not zeroed between uses); callers
// must treat it as uninitialized memory.
func Get(n int) []byte {
	if n == 0 {
		return nil
	}
	if n > MaxBuf {
		return make([]byte, n)
	}
	c := classFor(n)
	if p, ok := pools[c].Get().(*[]byte); ok {
		b := (*p)[:n]
		*p = nil
		boxes.Put(p)
		debugGet(b)
		return b
	}
	return make([]byte, n, MinBuf<<c)
}

// Put releases a buffer previously returned by Get. Buffers whose capacity is
// not an exact class size (they did not come from Get, or came from the
// above-MaxBuf direct-allocation path) are dropped, so Put never poisons a
// class with short buffers.
func Put(b []byte) {
	c := cap(b)
	if c < MinBuf || c > MaxBuf {
		return
	}
	cl := bits.Len(uint(c)) - bits.Len(uint(MinBuf))
	if c != MinBuf<<cl {
		return
	}
	debugPut(b)
	p := boxes.Get().(*[]byte)
	*p = b[:0]
	pools[cl].Put(p)
}

// Overlaps reports whether a and b share backing memory: whether some byte
// within a's capacity is also within b's. A view of a buffer overlaps it, so
// exactly one of the two may be released.
func Overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}
