package core

import (
	"context"
	"fmt"

	"godm/internal/bufpool"
	"godm/internal/replication"
	"godm/internal/transport"
)

// Requests and answers of the data-path calls are pooled: put and release
// encode into buffers from the frame pool and release them once the call has
// returned (the transport lends a payload only until then, cancellation
// included), and release each answer once it is decoded — nothing here keeps
// an answer, or a slice of one, past that.

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
		req := encodeReleaseReq(blocks[:n])
		resp, err := ep.Call(ctx, node, req)
		bufpool.Put(req)
		if err == nil {
			_, err = checkOKResp(resp)
			bufpool.Put(resp)
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
// there; offsets[i] receives the block entries[i] landed in. The donor
// installs all of it or none of it, so a failure leaves nothing to roll back;
// a put whose reply is lost strands its blocks until the donor's eviction
// path reclaims them. The payloads ride the call as a gather list: nothing is
// concatenated behind the header on this side.
func put(ctx context.Context, ep transport.Verbs, node, owner transport.NodeID, shard replication.Shard, entries []putEntry, payloads [][]byte, old []block, offsets []int64) error {
	s := getScratch()
	defer s.release()
	req := encodePutReq(int32(owner), shard, entries, old)
	s.vec = append(append(s.vec[:0], req), payloads...)
	resp, err := transport.CallV(ctx, ep, node, s.vec)
	bufpool.Put(req)
	if err != nil {
		return fmt.Errorf("core: put on node %d: %w", node, err)
	}
	r, err := decodePutResp(resp, len(entries))
	if err == nil {
		for i := range offsets {
			offsets[i] = r.offset(i)
		}
	}
	bufpool.Put(resp)
	return err
}

// putBlock is put for one payload: park data under key in a class-sized block
// on node, displacing old (at most one block, on that node), and return the
// new block's offset.
func putBlock(ctx context.Context, ep transport.Verbs, node, owner transport.NodeID, shard replication.Shard, key uint64, class int, data []byte, old ...block) (int64, error) {
	entry := [1]putEntry{{Key: key, Class: int32(class), Len: int32(len(data))}}
	payload := [1][]byte{data}
	var offset [1]int64
	err := put(ctx, ep, node, owner, shard, entry[:], payload[:], old, offset[:])
	return offset[0], err
}
