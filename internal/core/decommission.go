package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/pagetable"
	"godm/internal/transport"
)

// This file is the node side of the control plane (§IV.C-D): the heartbeat
// round with its epoch-versioned map sync, graceful decommission with block
// migration, and the redirect protocol that lets stale-epoch readers chase a
// moved block instead of failing.

// HeartbeatRound runs one control-plane round — the only membership path a
// node has. It records the node's own beat, refreshes its digest, exchanges a
// heartbeat and an epoch-delta map sync with each of its tree targets (members
// with their group leader, leaders with the root and their members, the root
// with every leader; one flat group is a star around its leader), and then
// advances the failure detector over those same targets. It returns every
// membership event the round produced, first-hand verdicts and ones adopted
// from a target's deltas alike: the caller hands each EventNodeDown to
// RepairLost however the node came to learn of it.
//
// Per-round traffic is O(group size). The exchanges fan out through des.Each:
// concurrently over a real fabric, so a dead target costs the round one
// context timeout and starves no other target of its beat, serially under the
// discrete-event simulation. Responses are folded in target order on both,
// after the last exchange returns. Unreachable targets are
// skipped; the failure detector turns their silence into a down verdict.
func (n *Node) HeartbeatRound(ctx context.Context) []cluster.Event {
	self := cluster.NodeID(n.cfg.ID)
	free := n.recv.FreeBytes()
	n.met.recvFreeBytes.Set(free)
	_ = n.dir.Heartbeat(self, free)
	targets := n.dir.TreeTargets(self)
	watched := make(map[cluster.NodeID]bool, len(targets))
	for _, t := range targets {
		watched[t] = true
	}
	// One digest refresh per round; the piggyback set varies per target (a
	// group leader relays its members' digests on its beat to the root), so
	// the heartbeat payload is encoded per target.
	selfDigest := n.refreshDigest()
	n.obsStore.Tick()

	n.syncMu.Lock()
	after := make([]cluster.Epoch, len(targets))
	for i, t := range targets {
		after[i] = n.lastSync[t]
	}
	n.syncMu.Unlock()
	syncs := make([]*cluster.SyncResponse, len(targets))
	// Errors are dropped: the failure detector judges a target by its silence.
	_ = des.Each(ctx, len(targets), func(i int) error {
		target := targets[i]
		to := transport.NodeID(target)
		hb := encodeHeartbeatReq(heartbeatReq{
			FreeBytes: free,
			Digests:   n.digestsFor(target, selfDigest),
		})
		if _, err := n.ep.Call(ctx, to, hb); err != nil {
			return err
		}
		sync := encodeMapSyncReq(cluster.SyncRequest{Origin: target, Epoch: after[i]})
		sr, err := ask(ctx, n.ep, to, "map sync from", sync, cluster.DecodeSyncResponse)
		if err == nil {
			syncs[i] = &sr
		}
		return err
	})

	var events []cluster.Event
	n.syncMu.Lock()
	for i, sr := range syncs {
		if sr == nil {
			continue
		}
		events = append(events, n.dir.ApplySync(self, *sr, watched)...)
		switch {
		case sr.Snapshot != nil:
			n.lastSync[targets[i]] = sr.Snapshot.Epoch
		case len(sr.Deltas) > 0:
			n.lastSync[targets[i]] = sr.Deltas[len(sr.Deltas)-1].Epoch
		}
	}
	n.syncMu.Unlock()
	events = append(events, n.dir.TickWatched(watched)...)
	for _, ev := range events {
		if ev.Kind == cluster.EventNodeLeft {
			n.obsStore.Drop(int64(ev.Node))
		}
	}
	return events
}

// Draining reports whether the node has begun a decommission drain (it
// refuses new allocations but keeps serving reads and redirects).
func (n *Node) Draining() bool {
	n.drainMu.Lock()
	defer n.drainMu.Unlock()
	return n.draining
}

// movedBlock is one drain tombstone: where a hosted block went.
type movedBlock struct {
	to     transport.NodeID
	offset int64
}

// Decommission gracefully removes this node from the cluster (§IV.C dynamic
// grouping): every block parked in the receive pool is migrated to another
// alive group member, each block's owner is told the new home (opMoved), a
// redirect tombstone is kept so stale-epoch readers that still dereference
// this node get a cheap stRedirect instead of a failure, and finally the
// departure is announced (opLeave) so peers record a Left map delta rather
// than waiting out their failure detectors. The node keeps serving reads,
// locates, and map syncs for its drain window — the process should exit only
// after stale clients have had time to catch up.
//
// It returns the number of blocks migrated. Blocks with no reachable
// successor fall back to an eviction notice to the owner, whose repair path
// restores the replication factor.
func (n *Node) Decommission(ctx context.Context) (int, error) {
	n.drainMu.Lock()
	if n.draining {
		n.drainMu.Unlock()
		return 0, nil
	}
	n.draining = true
	n.drainMu.Unlock()

	// Migrate in (key, slab, block) order so simulated drains are
	// deterministic: the walk is in (slab, block) order and the sort is stable.
	blocks := n.hostedBlocks()
	slices.SortStableFunc(blocks, byKey)
	moved, firstErr := n.moveOut(ctx, blocks)

	// Announce the departure so peers drop us via a Left delta immediately.
	self := cluster.NodeID(n.cfg.ID)
	leave := encode(opLeave, leaveReq{Node: n.cfg.ID}, (*leaveReq).fields)
	for _, st := range n.dir.Snapshot() {
		if st.ID == self || !st.Alive {
			continue
		}
		_, _ = n.ep.Call(ctx, transport.NodeID(st.ID), leave)
	}
	n.dir.Leave(self)
	return moved, firstErr
}

// byKey orders hosted blocks by their owner's key.
func byKey(a, b hostedBlock) int { return cmp.Compare(a.ref.key, b.ref.key) }

// moveOut migrates blocks away one by one and reports how many found a new
// home and the first error. A block with none is freed all the same: its owner
// is told it is gone, so its repair path re-replicates from the surviving
// copies.
func (n *Node) moveOut(ctx context.Context, blocks []hostedBlock) (moved int, firstErr error) {
	for _, b := range blocks {
		err := n.migrateBlock(ctx, b)
		if err == nil {
			moved++
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		n.notifyEvicted(ctx, b.ref)
		_ = n.freeOwned([]hostedBlock{b})
	}
	return moved, firstErr
}

// migrateBlock copies one hosted block to an alive group peer, records the
// redirect tombstone, and notifies the owner of the new home. Successors
// that refuse the block — no space, or already hosting a sibling replica or
// shard of the same key — are skipped for the next candidate; the block's
// owner is the last resort (its own remote copy beats an eviction notice).
func (n *Node) migrateBlock(ctx context.Context, b hostedBlock) error {
	data, err := n.recv.Read(b.h, b.h.Class)
	if err != nil {
		return err
	}
	exclude := []transport.NodeID{b.ref.owner}
	var lastErr error
	for {
		succs, perr := n.pickRemotes(1, exclude)
		if perr != nil {
			if errors.Is(perr, ErrNoCandidates) {
				break
			}
			return perr
		}
		to := transport.NodeID(succs[0])
		if lastErr = n.migrateTo(ctx, b, to, data); lastErr == nil {
			return nil
		}
		exclude = append(exclude, to)
	}
	if b.ref.owner != n.cfg.ID {
		if err := n.migrateTo(ctx, b, b.ref.owner, data); err == nil {
			return nil
		} else if lastErr == nil {
			lastErr = err
		}
	}
	if lastErr == nil {
		lastErr = ErrNoCandidates
	}
	return lastErr
}

// migrateTo copies one hosted block to a specific successor — one put on
// the owner's behalf, with the shard tag if the block is a stripe shard, so
// the successor hosts it exactly as this node did — records the redirect
// tombstone, and notifies the owner of the new home.
func (n *Node) migrateTo(ctx context.Context, b hostedBlock, to transport.NodeID, data []byte) error {
	offset, err := putBlock(ctx, n.ep, to, b.ref.owner, b.shard, b.ref.key, b.h.Class, data)
	if err != nil {
		return fmt.Errorf("core: drain copy to node %d: %w", to, err)
	}
	n.drainMu.Lock()
	if n.movedTo[b.ref.owner] == nil {
		n.movedTo[b.ref.owner] = map[uint64]movedBlock{}
	}
	n.movedTo[b.ref.owner][b.ref.key] = movedBlock{to: to, offset: offset}
	n.drainMu.Unlock()
	n.notifyMoved(ctx, b.ref, to, offset)
	_ = n.freeOwned([]hostedBlock{b})
	return nil
}

// notifyMoved tells a block's owner where its block went; a local owner is
// rehomed directly, a remote one best-effort over the control plane (a stale
// or departed owner discovers the move through opLocate redirects instead).
func (n *Node) notifyMoved(ctx context.Context, ref ownerRef, to transport.NodeID, offset int64) {
	if ref.owner == n.cfg.ID {
		n.applyMoved(n.cfg.ID, movedReq{Key: ref.key, NewNode: to, NewOffset: offset})
		return
	}
	_, _ = n.ep.Call(ctx, ref.owner, encode(opMoved, movedReq{Key: ref.key, NewNode: to, NewOffset: offset}, (*movedReq).fields))
}

// notifyEvicted tells a block's owner the block is gone: slab eviction, and
// the drain fallback when no successor could take the copy.
func (n *Node) notifyEvicted(ctx context.Context, ref ownerRef) {
	if ref.owner == n.cfg.ID {
		n.handleEvicted(n.cfg.ID, evictedReq{Key: ref.key})
		return
	}
	_, _ = n.ep.Call(ctx, ref.owner, encode(opEvicted, evictedReq{Key: ref.key}, (*evictedReq).fields))
}

// applyMoved is the owner side of opMoved: rehome the replica handle and
// repoint the page-table location from the draining host to the new one.
func (n *Node) applyMoved(from transport.NodeID, req movedReq) {
	if !n.remote.rehome(from, req.NewNode, req.Key, req.NewOffset) {
		return
	}
	vs, id, err := n.resolveKey(req.Key)
	if err != nil {
		return
	}
	loc, err := vs.table.Get(id)
	if err != nil {
		return
	}
	// A copy: readers may hold the recorded list.
	holders := slices.Clone(loc.Holders())
	for i, h := range holders {
		if h == pagetable.NodeID(from) {
			holders[i] = pagetable.NodeID(req.NewNode)
		}
	}
	vs.table.Put(id, loc.WithHolders(holders))
}

// handleLocate answers a block-location probe: stOK when from's block for key
// is still at the stated offset, stRedirect with the new home when the
// block migrated in a drain, an error otherwise. Keys are numbered per owner,
// so both answers are about from's key: another owner's block or tombstone
// under the same number is not it.
func (n *Node) handleLocate(from transport.NodeID, req locateReq) []byte {
	n.drainMu.Lock()
	mv, movedOK := n.movedTo[from][req.Key]
	n.drainMu.Unlock()
	if movedOK {
		return encode(stRedirect, redirect{Node: mv.to, Offset: mv.offset}, (*redirect).fields)
	}
	if _, ref, ok := n.ownerAt(req.Offset); !ok || ref != (ownerRef{owner: from, key: req.Key}) {
		return errorResp(fmt.Errorf("core: offset %d does not hold key %d", req.Offset, req.Key))
	}
	return okResp()
}
