package core

import (
	"context"
	"fmt"

	"godm/internal/transport"
)

// release frees blocks, one round trip per hosting node (the slice is
// regrouped in place). Every node is tried; the first failure is returned.
func release(ctx context.Context, ep transport.Verbs, blocks ...block) error {
	var firstErr error
	for len(blocks) > 0 {
		node, n := blocks[0].node, 0
		for i, b := range blocks {
			if b.node == node {
				blocks[i], blocks[n] = blocks[n], b
				n++
			}
		}
		resp, err := ep.Call(ctx, node, encodeReleaseReq(blocks[:n]))
		if err == nil {
			_, err = checkOKResp(resp)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: release on node %d: %w", node, err)
		}
		blocks = blocks[n:]
	}
	return firstErr
}

// reserve asks node for one block per entry, all or nothing — on behalf of
// owner (zero: the caller itself), optionally tagged as stripe shards — and
// hands the reply's offsets (in entry order) to write. If write fails every
// reservation is released, so a half-finished put strands no remote bytes.
// The rollback is best-effort on a detached context (the write failure may be
// the caller's context dying); the donor's eviction path is the backstop if
// the release itself is lost.
func reserve(ctx context.Context, ep transport.Verbs, node, owner transport.NodeID, shard shardInfo, entries []reservation, write func(reserveResp) error) (reserveResp, error) {
	resp, err := ep.Call(ctx, node, encodeReserveReq(int32(owner), shard, entries))
	if err != nil {
		return nil, fmt.Errorf("core: reserve on node %d: %w", node, err)
	}
	offsets, err := decodeReserveResp(resp, len(entries))
	if err != nil {
		return nil, err
	}
	if err := write(offsets); err != nil {
		fctx, cancel := detached(ctx)
		defer cancel()
		reserved := make([]block, len(entries))
		for i, e := range entries {
			reserved[i] = block{node: node, key: e.Key, offset: offsets.offset(i)}
		}
		_ = release(fctx, ep, reserved...)
		return nil, err
	}
	return offsets, nil
}

// parkBlock is reserve for one payload: reserve a class-sized block for key,
// one-sided write data into it, and return its offset.
func parkBlock(ctx context.Context, ep transport.Verbs, node, owner transport.NodeID, shard shardInfo, key uint64, class int, data []byte) (int64, error) {
	entry := [1]reservation{{Key: key, Class: int32(class)}}
	offsets, err := reserve(ctx, ep, node, owner, shard, entry[:], func(r reserveResp) error {
		if err := ep.WriteRegion(ctx, node, RecvRegionID, r.offset(0), data); err != nil {
			return fmt.Errorf("core: one-sided write to node %d: %w", node, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return offsets.offset(0), nil
}
