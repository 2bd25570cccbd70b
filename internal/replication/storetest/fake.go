// Package storetest holds the one in-memory replication.Store the policy
// tests of replication, ec and core share. It implements the whole contract —
// core's conformance table runs it beside the production store — so a test
// double cannot pass by doing less than production does.
package storetest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"godm/internal/replication"
)

// Fake is an in-memory replication.Store with per-node fault injection. Set
// Dead and PutErr between operations, not during them.
type Fake struct {
	// Dead nodes are unreachable: puts and reads on them fail.
	Dead map[replication.NodeID]bool
	// PutErr refuses puts on a node with the given error.
	PutErr map[replication.NodeID]error
	// Puts counts the puts attempted, refused ones included; Reads the reads
	// that passed the range check and so would have touched the fabric.
	Puts, Reads atomic.Int64

	mu      sync.Mutex
	entries map[fakeKey]Entry
}

type fakeKey struct {
	node replication.NodeID
	id   replication.EntryID
}

// Entry is what one node holds for one id.
type Entry struct {
	Data  []byte
	Class int
	Shard replication.Shard
}

// NewFake returns an empty store.
func NewFake() *Fake {
	return &Fake{
		Dead:    map[replication.NodeID]bool{},
		PutErr:  map[replication.NodeID]error{},
		entries: map[fakeKey]Entry{},
	}
}

var _ replication.Store = (*Fake)(nil)

// Put implements replication.Store.
func (f *Fake) Put(_ context.Context, node replication.NodeID, id replication.EntryID, class int, shard replication.Shard, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.Puts.Add(1)
	if err := f.PutErr[node]; err != nil {
		return err
	}
	if f.Dead[node] {
		return fmt.Errorf("node %d unreachable", node)
	}
	if len(data) > class {
		return fmt.Errorf("payload %d exceeds class %d", len(data), class)
	}
	f.entries[fakeKey{node, id}] = Entry{Data: append([]byte(nil), data...), Class: class, Shard: shard}
	return nil
}

// Len implements replication.Store. Like the production store it answers from
// the owner's records, so a dead node's entry still has a length.
func (f *Fake) Len(node replication.NodeID, id replication.EntryID) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[fakeKey{node, id}]
	if !ok {
		return 0, fmt.Errorf("no entry %d on node %d", id, node)
	}
	return len(e.Data), nil
}

// ReadAt implements replication.Store.
func (f *Fake) ReadAt(_ context.Context, node replication.NodeID, id replication.EntryID, off int, dst []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[fakeKey{node, id}]
	if !ok {
		return fmt.Errorf("no entry %d on node %d", id, node)
	}
	if off < 0 || off+len(dst) > len(e.Data) {
		return fmt.Errorf("range [%d,%d) exceeds payload %d", off, off+len(dst), len(e.Data))
	}
	f.Reads.Add(1)
	if f.Dead[node] {
		return fmt.Errorf("node %d unreachable", node)
	}
	copy(dst, e.Data[off:])
	return nil
}

// Delete implements replication.Store.
func (f *Fake) Delete(_ context.Context, node replication.NodeID, id replication.EntryID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.entries, fakeKey{node, id})
	return nil
}

// Entry returns what node holds for id.
func (f *Fake) Entry(node replication.NodeID, id replication.EntryID) (Entry, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.entries[fakeKey{node, id}]
	return e, ok
}

// Entries is the number of (node, id) pairs held.
func (f *Fake) Entries() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}
