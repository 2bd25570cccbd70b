package core

import (
	"context"
	"fmt"
	"sort"

	"godm/internal/cluster"
	"godm/internal/transport"
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
	// The migration path shares the decommission tombstone map; it must
	// exist before the first migrateBlock records into it.
	n.drainMu.Lock()
	if n.movedTo == nil {
		n.movedTo = map[uint64]movedBlock{}
	}
	n.drainMu.Unlock()

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
		// identically.
		bySlab := map[int][]hostedBlock{}
		for _, b := range n.hostedBlocks() {
			bySlab[b.h.SlabID] = append(bySlab[b.h.SlabID], b)
		}
		slabs := make([]int, 0, len(bySlab))
		for id := range bySlab {
			slabs = append(slabs, id)
		}
		sort.Slice(slabs, func(i, j int) bool {
			a, b := slabs[i], slabs[j]
			if len(bySlab[a]) != len(bySlab[b]) {
				return len(bySlab[a]) < len(bySlab[b])
			}
			return a < b
		})
		for _, id := range slabs {
			if reclaimed >= wantBytes {
				break
			}
			group := bySlab[id]
			sort.Slice(group, func(i, j int) bool {
				a, b := group[i], group[j]
				if a.ref.key != b.ref.key {
					return a.ref.key < b.ref.key
				}
				return a.h.Offset < b.h.Offset
			})
			for _, b := range group {
				err := n.migrateBlock(ctx, b)
				if err == nil {
					moved++
					continue
				}
				if firstErr == nil {
					firstErr = err
				}
				n.notifyEvicted(ctx, b.ref)
				n.takeOwner(b.h, nil)
				_ = n.recv.Free(b.h)
			}
			reclaimed += n.recv.ShrinkEmpty(wantBytes - reclaimed)
		}
	}
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

// HarvestRemote asks another node to harvest wantBytes from its donated
// pool; the donor side is Node.Harvest.
func (n *Node) HarvestRemote(ctx context.Context, node transport.NodeID, wantBytes int64) (int64, int, error) {
	resp, err := n.ep.Call(ctx, node, encode(opHarvest, harvestReq{WantBytes: wantBytes}, (*harvestReq).fields))
	if err != nil {
		return 0, 0, fmt.Errorf("core: harvest node %d: %w", node, err)
	}
	hr, err := decodeReply(resp, (*harvestResp).fields)
	if err != nil {
		return 0, 0, err
	}
	return hr.Reclaimed, int(hr.Moved), nil
}
