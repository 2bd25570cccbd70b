package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"godm/internal/cluster"
)

// Balloon harvesting (§IV.F): a donor node under local memory pressure claws
// back part of its donated receive pool without leaving the cluster. Where
// Decommission is a full drain — every hosted block migrated, the node gone
// from the map — Harvest is a partial one: only as many slabs as the
// requested byte count demands are emptied, the node keeps serving
// allocations out of whatever budget remains, and the same redirect
// tombstones keep stale readers correct for the blocks that did move.

// Harvest reclaims up to wantBytes of receive-pool budget for local use. It
// first drops slabs that are already empty; if that falls short it migrates
// hosted blocks away — cheapest slabs first, in a deterministic order — and
// shrinks again, until the target is met or no hosted blocks remain. Owners
// of migrated blocks are told the new home (opMoved) and a redirect
// tombstone answers stale locates, exactly as in a decommission drain.
//
// It returns the bytes actually reclaimed and the number of blocks migrated.
// Blocks with no reachable successor fall back to an eviction notice to the
// owner, whose repair path restores the replication factor.
func (n *Node) Harvest(ctx context.Context, wantBytes int64) (int64, int, error) {
	if wantBytes <= 0 {
		return 0, 0, fmt.Errorf("core: harvest wantBytes = %d must be positive", wantBytes)
	}
	// Cheapest first: unbacked headroom costs nothing to surrender, and
	// slabs with no live blocks release budget without a single network
	// round trip.
	reclaimed := n.recv.ShrinkBudget(wantBytes)
	if reclaimed < wantBytes {
		reclaimed += n.recv.ShrinkEmpty(wantBytes - reclaimed)
	}
	moved := 0
	var firstErr error
	if reclaimed < wantBytes {
		// Group blocks by slab: budget only comes back a whole slab at a
		// time, so partially emptying two slabs is strictly worse than fully
		// emptying one. Evict the cheapest slabs (fewest live blocks) first,
		// with slab ID as the tiebreak so simulated harvests replay
		// identically: the walk is in slab order and the sort is stable.
		var slabs [][]hostedBlock
		for blocks := n.hostedBlocks(); len(blocks) > 0; {
			k := 1
			for k < len(blocks) && blocks[k].h.SlabID == blocks[0].h.SlabID {
				k++
			}
			slabs, blocks = append(slabs, blocks[:k]), blocks[k:]
		}
		slices.SortStableFunc(slabs, func(a, b []hostedBlock) int { return cmp.Compare(len(a), len(b)) })
		for _, group := range slabs {
			if reclaimed >= wantBytes {
				break
			}
			slices.SortStableFunc(group, byKey) // (key, block): the walk was in block order
			m, err := n.moveOut(ctx, group)
			moved += m
			if firstErr == nil {
				firstErr = err
			}
			reclaimed += n.recv.ShrinkEmpty(wantBytes - reclaimed)
		}
	}
	n.pruneOwners()
	n.counters.harvestedBytes.Add(reclaimed)
	n.met.harvestedBytes.Add(reclaimed)
	n.met.harvestMoved.Add(int64(moved))
	free := n.recv.FreeBytes()
	n.met.recvFreeBytes.Set(free)
	// Re-advertise the shrunken pool immediately so balancers stop routing
	// new blocks at capacity this node no longer donates.
	_ = n.dir.Heartbeat(cluster.NodeID(n.cfg.ID), free)
	return reclaimed, moved, firstErr
}
