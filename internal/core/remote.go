package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"godm/internal/replication"
	"godm/internal/transport"
)

// remoteStore adapts the transport verbs to replication.Store: a two-sided
// put parks a payload in a remote receive pool (reserve, copy and release of
// the displaced block in one exchange), a two-sided release frees it, and
// reads stay one-sided (§IV.G's split, folded on the write side so a put is
// one round trip, not three).
type remoteStore struct {
	node *Node

	mu sync.Mutex
	// handles is the client half of the disaggregated memory map: where each
	// of our keys lives inside each remote node's receive region.
	handles map[remoteKey]remoteHandle
}

type remoteKey struct {
	node transport.NodeID
	key  uint64
}

type remoteHandle struct {
	offset  int64
	dataLen int
}

var _ replication.Store = (*remoteStore)(nil)

// Put implements replication.Store: data is parked on node in one round trip,
// the stripe coordinates (if any) riding along so the donor can refuse a
// sibling shard and answer opShardStat. A handle already held for (node, id)
// names the block this generation displaces, whose release rides the same
// put. On failure that handle stays, for the caller's rollback.
func (s *remoteStore) Put(ctx context.Context, node replication.NodeID, id replication.EntryID, class int, shard replication.Shard, data []byte) error {
	rk := remoteKey{node: transport.NodeID(node), key: uint64(id)}
	s.mu.Lock()
	prev, displaced := s.handles[rk]
	s.mu.Unlock()
	var old []block
	if displaced {
		old = []block{{node: rk.node, key: rk.key, offset: prev.offset}}
	}
	offset, err := putBlock(ctx, s.node.ep, rk.node, 0, shard, rk.key, class, data, old...)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.handles[rk] = remoteHandle{offset: offset, dataLen: len(data)}
	s.mu.Unlock()
	return nil
}

// handle looks up where id's payload lives inside node's receive region.
func (s *remoteStore) handle(node replication.NodeID, id replication.EntryID) (remoteHandle, error) {
	s.mu.Lock()
	h, ok := s.handles[remoteKey{node: transport.NodeID(node), key: uint64(id)}]
	s.mu.Unlock()
	if !ok {
		return h, fmt.Errorf("core: no handle for entry %d on node %d", id, node)
	}
	return h, nil
}

// Len implements replication.Store from the handle alone.
func (s *remoteStore) Len(node replication.NodeID, id replication.EntryID) (int, error) {
	h, err := s.handle(node, id)
	return h.dataLen, err
}

// ReadAt implements replication.Store: a one-sided read of the len(dst) bytes
// at off within the payload, straight into dst — a replicated read lands in
// the caller's buffer, a striped one lands each shard in its slice of it, with
// no copy in between. Failover across the replica or shard set is the
// policy's job.
func (s *remoteStore) ReadAt(ctx context.Context, node replication.NodeID, id replication.EntryID, off int, dst []byte) error {
	h, err := s.handle(node, id)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > h.dataLen {
		return fmt.Errorf("core: range [%d,%d) exceeds payload %d", off, off+len(dst), h.dataLen)
	}
	to := transport.NodeID(node)
	if err := transport.ReadRegionInto(ctx, s.node.ep, to, RecvRegionID, h.offset+int64(off), dst); err != nil {
		return fmt.Errorf("core: one-sided read from node %d: %w", to, err)
	}
	return nil
}

// Delete implements replication.Store: release the remote reservation.
func (s *remoteStore) Delete(ctx context.Context, node replication.NodeID, id replication.EntryID) error {
	to := transport.NodeID(node)
	key := uint64(id)
	s.mu.Lock()
	h, ok := s.handles[remoteKey{node: to, key: key}]
	if ok {
		delete(s.handles, remoteKey{node: to, key: key})
	}
	s.mu.Unlock()
	if !ok {
		return nil // absent: idempotent
	}
	if err := release(ctx, s.node.ep, block{node: to, key: key, offset: h.offset}); errors.Is(err, errRemote) {
		return err
	}
	// Released, or the remote is unreachable and its eviction path reclaims
	// the block.
	return nil
}

// rehome repoints the handle for key from old to new after a decommission
// migration (opMoved): the payload bytes now live at newOffset inside new's
// receive region. Returns false when no handle for (old, key) was tracked.
func (s *remoteStore) rehome(old, new transport.NodeID, key uint64, newOffset int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handles[remoteKey{node: old, key: key}]
	if !ok {
		return false
	}
	delete(s.handles, remoteKey{node: old, key: key})
	h.offset = newOffset
	s.handles[remoteKey{node: new, key: key}] = h
	return true
}

// drop forgets the local handle for key on node (used when the remote tells
// us it evicted the block).
func (s *remoteStore) drop(node transport.NodeID, key uint64) {
	s.mu.Lock()
	delete(s.handles, remoteKey{node: node, key: key})
	s.mu.Unlock()
}
