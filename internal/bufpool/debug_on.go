//go:build bufdebug

package bufpool

import (
	"fmt"
	"sync"
)

// poison is what a released buffer is filled with.
const poison = 0xDB

// pooled is the set of buffers currently released, by the address of their
// first byte. It also pins them: a buffer the sync.Pool drops stays reachable
// from here, so its address cannot be re-issued to a fresh allocation and
// mistaken for a double release. That leak is the price of the debug build.
var (
	pooledMu sync.Mutex
	pooled   = map[*byte]struct{}{}
)

// debugPut runs as b (already checked to span a whole class) is released.
func debugPut(b []byte) {
	b = b[:cap(b)]
	pooledMu.Lock()
	_, twice := pooled[&b[0]]
	pooled[&b[0]] = struct{}{}
	pooledMu.Unlock()
	if twice {
		panic(fmt.Sprintf("bufpool: double release of the %d-byte buffer at %p", len(b), &b[0]))
	}
	for i := range b {
		b[i] = poison
	}
}

// debugGet runs as b is drawn from the pool.
func debugGet(b []byte) {
	b = b[:cap(b)]
	pooledMu.Lock()
	delete(pooled, &b[0])
	pooledMu.Unlock()
	for i, v := range b {
		if v != poison {
			panic(fmt.Sprintf("bufpool: byte %d of the %d-byte buffer at %p was written after its release", i, len(b), &b[0]))
		}
	}
}
