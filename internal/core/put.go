package core

import (
	"context"
	"fmt"

	"godm/internal/replication"
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

// put parks one payload per entry on node in a single two-sided round trip —
// on behalf of owner (zero: the caller itself), optionally tagged as stripe
// shards — and in the same exchange releases the old blocks it displaces
// there. The donor installs all of it or none of it, so a failure leaves
// nothing to roll back; a put whose reply is lost strands its blocks until
// the donor's eviction path reclaims them. The payloads ride the call as a
// gather list: nothing is concatenated behind the header on this side.
func put(ctx context.Context, ep transport.Verbs, node, owner transport.NodeID, shard replication.Shard, entries []putEntry, payloads [][]byte, old []block) (putResp, error) {
	vec := make([][]byte, 1, 1+len(payloads))
	vec[0] = encodePutReq(int32(owner), shard, entries, old)
	resp, err := transport.CallV(ctx, ep, node, append(vec, payloads...))
	if err != nil {
		return nil, fmt.Errorf("core: put on node %d: %w", node, err)
	}
	return decodePutResp(resp, len(entries))
}

// putBlock is put for one payload: park data under key in a class-sized block
// on node, displacing old (at most one block, on that node), and return the
// new block's offset.
func putBlock(ctx context.Context, ep transport.Verbs, node, owner transport.NodeID, shard replication.Shard, key uint64, class int, data []byte, old ...block) (int64, error) {
	entry := [1]putEntry{{Key: key, Class: int32(class), Len: int32(len(data))}}
	payload := [1][]byte{data}
	offsets, err := put(ctx, ep, node, owner, shard, entry[:], payload[:], old)
	if err != nil {
		return 0, err
	}
	return offsets.offset(0), nil
}
