// Package pagetable implements the disaggregated memory map (§IV.C of the
// paper): the per-virtual-server metadata structure that records, for every
// data entry (swapped-out page, cache partition, key-value record), where in
// the disaggregated memory system it currently lives — the node-coordinated
// shared memory pool, the local RDMA send buffer, a set of remote nodes, or
// external storage.
//
// The paper calls out that a single flat in-memory hash table does not scale
// (5 GB of metadata per node for 2 TB of cluster memory at 8 B per 4 KB
// entry); the GroupedTable partitions the map by sharing group so each node
// only tracks entries within its group, and MetadataBytes exposes the §IV.C
// cost model that the mapscale experiment reproduces.
package pagetable

import (
	"errors"
	"fmt"
	"sync"
)

// Tier identifies where a data entry is parked. Values start at one so the
// zero Tier is detectably unset.
type Tier int

// Tiers in decreasing access speed, mirroring Figure 1's pools.
const (
	// TierSharedMemory is the node-coordinated shared memory pool.
	TierSharedMemory Tier = iota + 1
	// TierSendBuffer is the local RDMA-registered send buffer pool.
	TierSendBuffer
	// TierRemote is the receive buffer pool on one or more remote nodes.
	TierRemote
	// TierDisk is external secondary storage (the OS swap device).
	TierDisk
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierSharedMemory:
		return "shared-memory"
	case TierSendBuffer:
		return "send-buffer"
	case TierRemote:
		return "remote"
	case TierDisk:
		return "disk"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// EntryID names one data entry (page or cache partition) within one virtual
// server's map.
type EntryID uint64

// NodeID names a physical node in the cluster.
type NodeID int

// SlabRef locates a block inside a node's registered pool.
type SlabRef struct {
	SlabID int
	Offset int
}

// Location records where an entry lives and how it is stored.
type Location struct {
	Tier Tier
	// Primary is the node holding the authoritative copy (meaningful for
	// TierRemote; for local tiers it is the owning node).
	Primary NodeID
	// Replicas are the additional nodes holding copies (TierRemote only).
	Replicas []NodeID
	// holders is Primary followed by Replicas in one slice, as WithHolders laid
	// them out, so a read hands the durability policy its node list without
	// building one. Primary and Replicas are for reading: whoever changes the
	// set goes through WithHolders.
	holders []NodeID
	// Ref locates the block inside the tier's pool (shared memory, send
	// buffer, or the primary's receive pool).
	Ref SlabRef
	// StoredSize is the size class occupied after compression.
	StoredSize int
	// RawSize is the uncompressed entry size.
	RawSize int
	// DiskOffset is the swap-device offset for TierDisk.
	DiskOffset int64
	// BatchID groups entries swapped out in the same batching window; the
	// proactive batch swap-in path prefetches by BatchID.
	BatchID uint64
}

// WithHolders returns l held by nodes, the primary first. The location keeps
// the slice.
func (l Location) WithHolders(nodes []NodeID) Location {
	l.holders, l.Primary, l.Replicas = nodes, nodes[0], nodes[1:]
	return l
}

// Holders returns every node holding the entry, primary first: the slice
// WithHolders recorded (not to be modified), or one built from Primary and
// Replicas for a location spelled out by hand.
func (l Location) Holders() []NodeID {
	if l.holders != nil {
		return l.holders
	}
	return append([]NodeID{l.Primary}, l.Replicas...)
}

// ErrNotFound is returned when an entry has no recorded location.
var ErrNotFound = errors.New("pagetable: entry not found")

const numShards = 64

type shard struct {
	mu sync.RWMutex
	m  map[EntryID]Location
}

// Table is a concurrency-safe entry→location map for one virtual server.
type Table struct {
	shards [numShards]*shard
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i] = &shard{m: map[EntryID]Location{}}
	}
	return t
}

func (t *Table) shardFor(id EntryID) *shard {
	// Fibonacci hashing spreads sequential page IDs across shards.
	return t.shards[(uint64(id)*0x9E3779B97F4A7C15)>>58&(numShards-1)]
}

// Put records or replaces the location of id.
func (t *Table) Put(id EntryID, loc Location) {
	s := t.shardFor(id)
	s.mu.Lock()
	s.m[id] = loc
	s.mu.Unlock()
}

// Get returns the location of id, or an error wrapping ErrNotFound.
func (t *Table) Get(id EntryID) (Location, error) {
	loc, ok := t.Lookup(id)
	if !ok {
		return Location{}, fmt.Errorf("%w: entry %d", ErrNotFound, id)
	}
	return loc, nil
}

// Lookup is Get for a caller that only asks whether id is mapped: a miss
// builds no error.
func (t *Table) Lookup(id EntryID) (Location, bool) {
	s := t.shardFor(id)
	s.mu.RLock()
	loc, ok := s.m[id]
	s.mu.RUnlock()
	return loc, ok
}

// Delete removes id, reporting whether it was present.
func (t *Table) Delete(id EntryID) bool {
	s := t.shardFor(id)
	s.mu.Lock()
	_, ok := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	return ok
}

// Update atomically applies fn to the location of id. fn receives the current
// location (ok=false when absent) and returns the new location; returning
// keep=false deletes the entry instead.
func (t *Table) Update(id EntryID, fn func(loc Location, ok bool) (Location, bool)) {
	s := t.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.m[id]
	next, keep := fn(cur, ok)
	if keep {
		s.m[id] = next
	} else {
		delete(s.m, id)
	}
}

// Len returns the number of recorded entries.
func (t *Table) Len() int {
	n := 0
	for _, s := range t.shards {
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// ForEach calls fn for every entry. The iteration order is unspecified; fn
// must not call back into the table.
func (t *Table) ForEach(fn func(id EntryID, loc Location)) {
	for _, s := range t.shards {
		s.mu.RLock()
		for id, loc := range s.m {
			fn(id, loc)
		}
		s.mu.RUnlock()
	}
}

// CountByTier returns entry counts per tier.
func (t *Table) CountByTier() map[Tier]int {
	out := map[Tier]int{}
	t.ForEach(func(_ EntryID, loc Location) { out[loc.Tier]++ })
	return out
}

// EntriesOnNode returns the IDs whose primary or replica set includes node.
// The result order is unspecified.
func (t *Table) EntriesOnNode(node NodeID) []EntryID {
	var ids []EntryID
	t.ForEach(func(id EntryID, loc Location) {
		if loc.Tier != TierRemote {
			return
		}
		if loc.Primary == node {
			ids = append(ids, id)
			return
		}
		for _, r := range loc.Replicas {
			if r == node {
				ids = append(ids, id)
				return
			}
		}
	})
	return ids
}

// EntryMetadataBytes is the per-entry metadata footprint the paper assumes in
// its §IV.C estimate: an 8-byte location identifier.
const EntryMetadataBytes = 8

// MetadataBytes reproduces the paper's scalability arithmetic: the metadata a
// flat map needs on every node to track clusterBytes of disaggregated memory
// at the given entry size. With 4 KB entries and 8 B of metadata, 2 TB of
// cluster memory costs ~4 GiB per node (the paper rounds to 5 GB) and 10 TB
// costs ~20 GiB (paper: 25 GB).
func MetadataBytes(clusterBytes int64, entrySize int) int64 {
	if entrySize <= 0 {
		panic("pagetable: entry size must be positive")
	}
	entries := clusterBytes / int64(entrySize)
	return entries * EntryMetadataBytes
}

// GroupedMetadataBytes is the per-node metadata cost when the cluster is
// partitioned into sharing groups of groupNodes nodes each (§IV.C's
// hierarchical group sharing model): a node only tracks entries inside its
// own group.
func GroupedMetadataBytes(clusterBytes int64, entrySize, totalNodes, groupNodes int) int64 {
	if totalNodes <= 0 || groupNodes <= 0 || groupNodes > totalNodes {
		panic("pagetable: invalid group shape")
	}
	groupBytes := clusterBytes * int64(groupNodes) / int64(totalNodes)
	return MetadataBytes(groupBytes, entrySize)
}

// GroupedTable partitions tables by sharing group so lookups and metadata
// stay group-local.
type GroupedTable struct {
	mu     sync.RWMutex
	groups map[int]*Table
}

// NewGrouped returns an empty grouped table.
func NewGrouped() *GroupedTable {
	return &GroupedTable{groups: map[int]*Table{}}
}

// Group returns the table for group g, creating it on first use.
func (gt *GroupedTable) Group(g int) *Table {
	gt.mu.RLock()
	t, ok := gt.groups[g]
	gt.mu.RUnlock()
	if ok {
		return t
	}
	gt.mu.Lock()
	defer gt.mu.Unlock()
	if t, ok = gt.groups[g]; ok {
		return t
	}
	t = New()
	gt.groups[g] = t
	return t
}

// Groups returns the number of materialized groups.
func (gt *GroupedTable) Groups() int {
	gt.mu.RLock()
	defer gt.mu.RUnlock()
	return len(gt.groups)
}

// TotalLen sums entry counts across all groups.
func (gt *GroupedTable) TotalLen() int {
	gt.mu.RLock()
	defer gt.mu.RUnlock()
	n := 0
	for _, t := range gt.groups {
		n += t.Len()
	}
	return n
}
