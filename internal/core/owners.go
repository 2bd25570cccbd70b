package core

import (
	"cmp"
	"maps"
	"math/bits"
	"slices"
	"sync"

	"godm/internal/replication"
	"godm/internal/slab"
	"godm/internal/transport"
)

// ownerRef records who parked a block in our receive pool.
type ownerRef struct {
	owner transport.NodeID
	key   uint64
}

// ownerRec is the owner record of one receive-pool block. It sits at the
// block's address — its slab's table, its block number — so a handle finds it
// by indexing; while live, next threads it onto its (owner, key)'s chain.
type ownerRec struct {
	ref   ownerRef
	next  recLink
	shard replication.Shard // the stripe position it was put as, if any
	live  bool
}

// recLink is a record's address as a number, slab id<<32 | block number + 1;
// zero is no record. Chains link by address, not by pointer, so the index is
// nothing the collector scans, however large the pool.
type recLink uint64

func linkOf(h slab.Handle) recLink { return recLink(h.SlabID)<<32 | recLink(h.Offset/h.Class+1) }

// ownerSlab is one slab's record table. Slab ids are never re-issued, so a
// table is only ever read at the class it was made for.
type ownerSlab struct {
	id, class, live int // live counts the records in use
	recs            []ownerRec
}

// ownerIndex is who parked what in the receive pool: a record table per slab
// that has hosted a block, and the (owner, key) → blocks index as chains through
// the records. mu guards it all: a leaf lock, taken once per request and never
// held across a slab.Pool or transport call. The methods expect it held.
type ownerIndex struct {
	mu       sync.Mutex
	slabSize int
	tables   map[int]*ownerSlab // by slab id
	last     *ownerSlab         // the table used last: a window shares a slab
	buckets  []recLink          // chain heads, 1<<(64-shift) of them
	shift    uint
}

// newOwnerIndex sizes the chains once, for a pool of poolBytes: a bucket per
// 4 KiB, so a pool full of the largest page class averages a record a chain.
func newOwnerIndex(poolBytes int64, slabSize int) *ownerIndex {
	b := bits.Len64(uint64(poolBytes-1) >> 12)
	return &ownerIndex{slabSize: slabSize, tables: map[int]*ownerSlab{}, buckets: make([]recLink, 1<<b), shift: uint(64 - b)}
}

// bucket returns the head of ref's chain. Owners number their keys
// consecutively; the multiplicative hash spreads such runs evenly.
func (ix *ownerIndex) bucket(ref ownerRef) *recLink {
	return &ix.buckets[(ref.key+uint64(ref.owner)*0xBF58476D1CE4E5B9)*0x9E3779B97F4A7C15>>ix.shift]
}

// rec returns the record l names and its table, nil if its slab has none.
func (ix *ownerIndex) rec(l recLink) (*ownerSlab, *ownerRec) {
	if id := int(l >> 32); ix.last == nil || ix.last.id != id {
		if ix.last = ix.tables[id]; ix.last == nil {
			return nil, nil
		}
	}
	return ix.last, &ix.last.recs[uint32(l)-1]
}

// add records that ref parked h, a block the pool has just allocated, as shard
// of its stripe (zero: not a shard).
func (ix *ownerIndex) add(h slab.Handle, ref ownerRef, shard replication.Shard) {
	l := linkOf(h)
	t, r := ix.rec(l)
	if t == nil {
		ix.tables[h.SlabID] = &ownerSlab{id: h.SlabID, class: h.Class, recs: make([]ownerRec, ix.slabSize/h.Class)}
		t, r = ix.rec(l)
	}
	head := ix.bucket(ref)
	*r = ownerRec{ref: ref, next: *head, shard: shard, live: true}
	*head = l
	t.live++
}

// at returns who parked h, if it has a live record.
func (ix *ownerIndex) at(h slab.Handle) (ownerRef, bool) {
	if _, r := ix.rec(linkOf(h)); r != nil && r.live {
		return r.ref, true
	}
	return ownerRef{}, false
}

// take removes and returns the owner record of h, if any — when want is
// non-nil, only if the record is *want. A release says what the owner knew
// when it was sent; by the time it arrives (late, or replayed by the fabric)
// the block may be free or re-issued to another key, and freeing whatever lives
// there now would destroy a stranger's block. Such an entry takes nothing.
func (ix *ownerIndex) take(h slab.Handle, want *ownerRef) (ownerRef, bool) {
	l := linkOf(h)
	t, r := ix.rec(l)
	if r == nil || !r.live || (want != nil && r.ref != *want) {
		return ownerRef{}, false
	}
	p := ix.bucket(r.ref)
	for *p != l {
		_, q := ix.rec(*p)
		p = &q.next
	}
	*p, r.next, r.live = r.next, 0, false
	t.live--
	return r.ref, true
}

// lookup walks ref's chain: how many blocks are parked under it and, if they
// are a stripe shard, its coordinates.
func (ix *ownerIndex) lookup(ref ownerRef) (blocks int, shard replication.Shard) {
	for l := *ix.bucket(ref); l != 0; {
		_, r := ix.rec(l)
		if l = r.next; r.ref == ref {
			blocks++
			if r.shard.Tagged() {
				shard = r.shard
			}
		}
	}
	return blocks, shard
}

// lookupKey is ownerIndex.lookup for one (owner, key).
func (n *Node) lookupKey(owner transport.NodeID, key uint64) (int, replication.Shard) {
	n.owners.mu.Lock()
	defer n.owners.mu.Unlock()
	return n.owners.lookup(ownerRef{owner: owner, key: key})
}

// HostsRemoteKey reports whether this node currently hosts a receive-pool
// block that owner parked under key. The chaos invariant checkers use it to
// prove that aborted writes and batches leave no stranded copies behind.
func (n *Node) HostsRemoteKey(owner transport.NodeID, key uint64) bool {
	blocks, _ := n.lookupKey(owner, key)
	return blocks > 0
}

// ShardInfo reports which shard of owner's stripe under key this node hosts.
// Chaos invariant checkers use it to prove each shard of a stripe landed on
// its own donor at the position the stripe map records.
func (n *Node) ShardInfo(owner transport.NodeID, key uint64) (idx, k, m int, ok bool) {
	_, si := n.lookupKey(owner, key)
	return int(si.Idx), int(si.K), int(si.M), si.Tagged()
}

// ownerAt returns the live block at a global offset of the receive region
// and its owner record, if there is one.
func (n *Node) ownerAt(off int64) (slab.Handle, ownerRef, bool) {
	h, err := n.recv.HandleAt(off)
	if err != nil {
		return h, ownerRef{}, false
	}
	n.owners.mu.Lock()
	defer n.owners.mu.Unlock()
	ref, ok := n.owners.at(h)
	return h, ref, ok
}

// hostedBlock is one block parked in the receive pool.
type hostedBlock struct {
	h     slab.Handle
	ref   ownerRef
	shard replication.Shard
}

// hostedBlocks snapshots every block parked in the receive pool, in (slab id,
// block) order.
func (n *Node) hostedBlocks() []hostedBlock {
	var blocks []hostedBlock
	n.owners.mu.Lock()
	for id, t := range n.owners.tables {
		for i := range t.recs {
			if r := &t.recs[i]; r.live {
				blocks = append(blocks, hostedBlock{slab.Handle{SlabID: id, Offset: i * t.class, Class: t.class}, r.ref, r.shard})
			}
		}
	}
	n.owners.mu.Unlock()
	slices.SortFunc(blocks, func(a, b hostedBlock) int {
		return cmp.Or(cmp.Compare(a.h.SlabID, b.h.SlabID), cmp.Compare(a.h.Offset, b.h.Offset))
	})
	return blocks
}

// pruneOwners drops the tables with no live record. It runs where the node
// shrinks the receive pool, not when a table's last record goes: a window loop
// empties and refills one slab, and would re-make its table every round.
func (n *Node) pruneOwners() {
	n.owners.mu.Lock()
	defer n.owners.mu.Unlock()
	n.owners.last = nil
	maps.DeleteFunc(n.owners.tables, func(_ int, t *ownerSlab) bool { return t.live == 0 })
}
