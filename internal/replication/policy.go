package replication

import (
	"context"
	"fmt"
	"slices"
)

// PickFunc supplies replacement donors during Restore: count distinct nodes,
// none of which appear in exclude. The node manager backs it with its
// placement balancer over the live candidate list.
type PickFunc func(count int, exclude []NodeID) ([]NodeID, error)

// Policy is the shared durability-policy interface (§IV.D generalized): how
// an entry's bytes spread across donors, how they come back, and how
// durability is re-established after donor loss. Two implementations exist —
// this package's Replicator (rf<N>: N full copies) and ec.CodingPolicy
// (rs<K>.<M>: Reed–Solomon striping) — selected per node via
// core.Config.Durability.
type Policy interface {
	// Name identifies the policy ("rf3", "rs4.2") in stats and flags.
	Name() string
	// Width is the number of distinct donors each entry occupies.
	Width() int
	// ShardClass maps an entry's size class to the per-donor allocation
	// class: the class itself for replication, ceil(class/k) for coding —
	// the source of coding's capacity-per-durable-byte win.
	ShardClass(entryClass int) int
	// Write spreads data for id — an entry of size class class, of which each
	// donor reserves ShardClass(class) — across nodes atomically (all or
	// nothing).
	Write(ctx context.Context, nodes []NodeID, id EntryID, class int, data []byte) error
	// Read assembles the entry into the front of dst, tolerating the donor
	// failures the policy is built for, and reports the payload's length and
	// the node that served it (the primary for striped reads). dst must
	// hold the whole payload — one too short is refused before any donor is
	// read — and is lent for the call only: nothing writes it once Read has
	// returned. The policy allocates no result; a caller that wants a fresh
	// buffer makes one (core.VirtualServer.Get).
	Read(ctx context.Context, nodes []NodeID, id EntryID, dst []byte) (n int, served NodeID, err error)
	// ReadAt fills dst with the len(dst) bytes at offset off within the
	// stored payload, under the same lending rule.
	ReadAt(ctx context.Context, nodes []NodeID, id EntryID, off int, dst []byte) error
	// Delete releases the entry on every donor.
	Delete(ctx context.Context, nodes []NodeID, id EntryID) error
	// Restore re-establishes durability after the donors in lost died or
	// evicted the entry, drawing replacements from pick; class is the entry's
	// size class, as in Write. It returns the
	// updated donor set and the lost donors whose share could NOT be
	// restored this pass (the caller requeues those). A non-nil error means
	// no progress was made at all.
	Restore(ctx context.Context, nodes []NodeID, id EntryID, class int, lost []NodeID, pick PickFunc) (newSet, stillLost []NodeID, err error)
}

var _ Policy = (*Replicator)(nil)

// Name implements Policy.
func (r *Replicator) Name() string { return fmt.Sprintf("rf%d", r.factor) }

// Width implements Policy.
func (r *Replicator) Width() int { return r.factor }

// ShardClass implements Policy: every copy is full-size.
func (r *Replicator) ShardClass(entryClass int) int { return entryClass }

// ReadAt implements Policy: Read's failover, counters and span over a
// sub-range.
func (r *Replicator) ReadAt(ctx context.Context, nodes []NodeID, id EntryID, off int, dst []byte) error {
	_, err := r.readFrom(ctx, nodes, id, func(ctx context.Context, node NodeID) error {
		return r.store.ReadAt(ctx, node, id, off, dst)
	})
	return err
}

// Restore implements Policy: each lost replica is re-created from a
// surviving copy on a freshly-picked replacement. Lost members no longer in
// the set (an earlier pass already handled them) are skipped, and members
// whose repair fails this pass come back in stillLost for requeueing — the
// partial-repair accounting the binary repaired/failed model lost.
func (r *Replicator) Restore(ctx context.Context, nodes []NodeID, id EntryID, class int, lost []NodeID, pick PickFunc) ([]NodeID, []NodeID, error) {
	current := append([]NodeID(nil), nodes...)
	var still []NodeID
	var firstErr error
	progress := false
	for _, l := range lost {
		if !slices.Contains(current, l) {
			progress = true // someone already repaired it: the queue entry is stale
			continue
		}
		newSet, err := r.repair(ctx, current, id, class, l, pick)
		if err != nil {
			still = append(still, l)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		current, progress = newSet, true
	}
	if !progress && len(still) > 0 {
		return nodes, nil, firstErr
	}
	return current, still, nil
}
