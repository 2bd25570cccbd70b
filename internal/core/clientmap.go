package core

import (
	"context"
	"errors"
	"fmt"

	"godm/internal/bufpool"
	"godm/internal/cluster"
	"godm/internal/transport"
)

// maxRedirects caps how many stRedirect hops one read will chase. Two is
// enough for the worst sanctioned chain — a block migrated in a drain whose
// successor then drained itself — and the scale suite asserts the cluster
// never produces a longer one.
const maxRedirects = 2

// Map exposes the client's epoch-versioned snapshot of the cluster memory
// map (leaders, groups, liveness). It starts empty; SyncMap fills it.
func (c *Client) Map() *cluster.ClientMap { return c.cm }

// Redirects reports how many redirect hops this client's reads have followed
// since creation.
func (c *Client) Redirects() int64 { return c.redirects.Load() }

// SyncMap refreshes the client's memory-map snapshot from node: the client
// states the origin and epoch it already holds, and the node answers with
// just the deltas recorded since — O(churn) bytes, not O(cluster) — or a
// full snapshot when the client is cold, behind by too much, or switching
// origins.
func (c *Client) SyncMap(ctx context.Context, node transport.NodeID) error {
	sr, err := ask(ctx, c.ep, node, "map sync from", encodeMapSyncReq(c.cm.Request()), cluster.DecodeSyncResponse)
	if err != nil {
		return err
	}
	return c.cm.Apply(sr)
}

// homeOf resolves where the block behind h actually lives: the node the
// entry was put to, unless a followed redirect recorded a newer home.
func homeOf(ck clientKey, h clientHandle) transport.NodeID {
	if h.home != 0 {
		return h.home
	}
	return ck.node
}

// block names the remote block behind h for release: at its current home,
// not necessarily the node the entry was put to.
func (h clientHandle) block(ck clientKey) block {
	return block{node: homeOf(ck, h), key: ck.key, offset: h.offset}
}

// handle returns the handle a read of ck goes through, settling it first if
// it is doubted.
func (c *Client) handle(ctx context.Context, ck clientKey) (clientHandle, error) {
	c.mu.Lock()
	h, ok := c.handles[ck]
	c.mu.Unlock()
	if !ok {
		return h, fmt.Errorf("core: no handle for key %d on node %d", ck.key, ck.node)
	}
	if h.doubted {
		return c.settle(ctx, ck, h)
	}
	return h, nil
}

// doubt marks the handles of blocks whose release rode a put that failed. A
// refusal in-band changed nothing on the donor. A call that failed in transit
// — a reply lost, a deadline passed — may have run there all the same, and
// then those blocks are free, soon someone else's: reading through their
// handles would return a stranger's bytes. The versions they hold stay
// readable if they survived; each read asks first (settle).
func (c *Client) doubt(node transport.NodeID, err error, displaced []block) {
	if errors.Is(err, errRemote) || errors.Is(err, ErrRemoteFull) {
		return
	}
	c.mu.Lock()
	for _, b := range displaced {
		ck := clientKey{node: node, key: b.key}
		if h, ok := c.handles[ck]; ok && h.offset == b.offset {
			h.doubted = true
			c.handles[ck] = h
		}
	}
	c.mu.Unlock()
}

// settle asks a doubted handle's donor whether the block is still the key's:
// if so the doubt is cleared, if not the handle is dropped — the version is
// gone with the put that displaced it and never told us where the new one is.
func (c *Client) settle(ctx context.Context, ck clientKey, h clientHandle) (clientHandle, error) {
	node := homeOf(ck, h)
	_, inPlace, err := c.locate(ctx, node, ck.key, h.offset)
	if err != nil && !errors.Is(err, errRemote) {
		return h, err // no answer: still in doubt
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.handles[ck]; !ok || cur != h {
		if !ok {
			return h, fmt.Errorf("core: no handle for key %d on node %d", ck.key, ck.node)
		}
		return cur, nil // re-put meanwhile
	}
	if !inPlace {
		delete(c.handles, ck)
		return h, fmt.Errorf("core: key %d on node %d was displaced by a put whose reply was lost", ck.key, node)
	}
	h.doubted = false
	c.handles[ck] = h
	return h, nil
}

// readEntry is the redirect-aware read path behind Get and GetInto. The
// common case is one optimistic one-sided read straight from the recorded
// home — a draining host keeps migrated bytes intact (it refuses new
// allocations), so even a stale-epoch read returns correct data. The client
// probes opLocate only when its synced map says the home is gone, or when
// the optimistic read fails; a redirect answer rewrites the handle so later
// reads go straight to the new home.
func (c *Client) readEntry(ctx context.Context, ck clientKey, h clientHandle, dst []byte) (int, error) {
	node := homeOf(ck, h)
	if c.cm.Synced() && !c.cm.Alive(cluster.NodeID(node)) {
		if nn, noff, moved := c.chase(ctx, node, ck.key, h.offset); moved {
			node, h.offset = nn, noff
			c.rememberHome(ck, node, h.offset)
		}
	}
	n, err := c.getInto(ctx, node, h, dst)
	if err == nil {
		return n, nil
	}
	nn, noff, moved := c.chase(ctx, node, ck.key, h.offset)
	if !moved {
		return 0, err
	}
	node, h.offset = nn, noff
	c.rememberHome(ck, node, h.offset)
	return c.getInto(ctx, node, h, dst)
}

// locate asks node whether the block for key is at offset: in place, moved
// (the redirect says where), or — errRemote — neither.
func (c *Client) locate(ctx context.Context, node transport.NodeID, key uint64, offset int64) (redirect, bool, error) {
	resp, err := c.ep.Call(ctx, node, encode(opLocate, locateReq{Key: key, Offset: offset}, (*locateReq).fields))
	if err != nil {
		return redirect{}, false, fmt.Errorf("core: locate key %d on node %d: %w", key, node, err)
	}
	rd, inPlace, err := decodeLocateResp(resp)
	bufpool.Put(resp)
	return rd, inPlace, err
}

// chase asks node where the block for key at offset lives, following up to
// maxRedirects stRedirect hops, and reports the final location and whether
// it differs from the starting one.
func (c *Client) chase(ctx context.Context, node transport.NodeID, key uint64, offset int64) (transport.NodeID, int64, bool) {
	moved := false
	for hop := 0; hop < maxRedirects; hop++ {
		rd, inPlace, err := c.locate(ctx, node, key, offset)
		if err != nil {
			return 0, 0, false
		}
		if inPlace {
			return node, offset, moved
		}
		c.redirects.Add(1)
		node, offset, moved = rd.Node, rd.Offset, true
	}
	return node, offset, moved
}

// rememberHome rewrites the stored handle after a followed redirect so the
// next read skips the locate round trip.
func (c *Client) rememberHome(ck clientKey, node transport.NodeID, offset int64) {
	c.mu.Lock()
	if h, ok := c.handles[ck]; ok {
		h.home = node
		h.offset = offset
		c.handles[ck] = h
	}
	c.mu.Unlock()
}

// Decommission asks node to drain: migrate every hosted block to alive group
// peers, notify owners, install redirect tombstones, and leave the cluster
// map. It returns the number of blocks migrated. The node keeps answering
// reads, locates, and map syncs until its process exits, so stale clients
// have a window to catch up.
func (c *Client) Decommission(ctx context.Context, node transport.NodeID) (int, error) {
	dr, err := ask(ctx, c.ep, node, "decommission", []byte{opDecommission}, fieldsOf((*decommissionResp).fields))
	return int(dr.Moved), err
}

// Harvest asks node to claw back wantBytes of its donated receive pool for
// local use (balloon harvesting): already-empty slabs are dropped first,
// then hosted blocks migrate away — cheapest slabs first — until the target
// is met. The node stays in the cluster with a smaller advertised pool. It
// returns the bytes reclaimed and the number of blocks migrated.
func (c *Client) Harvest(ctx context.Context, node transport.NodeID, wantBytes int64) (int64, int, error) {
	msg := encode(opHarvest, harvestReq{WantBytes: wantBytes}, (*harvestReq).fields)
	hr, err := ask(ctx, c.ep, node, "harvest", msg, fieldsOf((*harvestResp).fields))
	return hr.Reclaimed, int(hr.Moved), err
}
