package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"godm/internal/ec"
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
	// classes holds the size class to reserve for a key on any donor while a
	// replicated write or a repair of it is in flight: the caller sets it
	// before the policy fans out and clears it when the policy returns, so
	// the map is bounded by the operations in progress, not by the keys ever
	// written.
	classes map[uint64]int
}

type remoteKey struct {
	node transport.NodeID
	key  uint64
}

type remoteHandle struct {
	offset  int64
	class   int
	dataLen int
}

// setClass records the allocation class for key before a Write or Restore
// fans out; clearClass forgets it once the policy has returned.
func (s *remoteStore) setClass(key uint64, class int) {
	s.mu.Lock()
	s.classes[key] = class
	s.mu.Unlock()
}

func (s *remoteStore) clearClass(key uint64) {
	s.mu.Lock()
	delete(s.classes, key)
	s.mu.Unlock()
}

var _ replication.Store = (*remoteStore)(nil)

// Put implements replication.Store.
func (s *remoteStore) Put(ctx context.Context, node replication.NodeID, id replication.EntryID, data []byte) error {
	return s.put(ctx, node, id, shardInfo{}, data)
}

// PutShard implements ec.ShardStore: Put with the stripe coordinates riding
// along, so the donor can refuse a sibling shard and answer opShardStat.
func (s *remoteStore) PutShard(ctx context.Context, node replication.NodeID, id replication.EntryID, idx, k, m int, data []byte) error {
	return s.put(ctx, node, id, shardInfo{idx: uint8(idx), k: uint8(k), m: uint8(m)}, data)
}

// put parks data on node in one round trip; a handle already held for
// (node, key) names the block this generation displaces, whose release rides
// the same put. On failure that handle stays, for the caller's rollback.
func (s *remoteStore) put(ctx context.Context, node replication.NodeID, id replication.EntryID, shard shardInfo, data []byte) error {
	rk := remoteKey{node: transport.NodeID(node), key: uint64(id)}
	s.mu.Lock()
	class, ok := s.classes[rk.key]
	if !ok {
		class = len(data)
	}
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
	s.handles[rk] = remoteHandle{offset: offset, class: class, dataLen: len(data)}
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

// read is the store's one read: a one-sided read of len(dst) bytes at off
// within the payload behind h, straight into dst.
func (s *remoteStore) read(ctx context.Context, node replication.NodeID, h remoteHandle, off int, dst []byte) error {
	to := transport.NodeID(node)
	if err := transport.ReadRegionInto(ctx, s.node.ep, to, RecvRegionID, h.offset+int64(off), dst); err != nil {
		return fmt.Errorf("core: one-sided read from node %d: %w", to, err)
	}
	return nil
}

// Get implements replication.Store: GetInto a fresh buffer of exactly the
// payload's length, which the caller owns.
func (s *remoteStore) Get(ctx context.Context, node replication.NodeID, id replication.EntryID) ([]byte, error) {
	h, err := s.handle(node, id)
	if err != nil {
		return nil, err
	}
	data := make([]byte, h.dataLen)
	if err := s.read(ctx, node, h, 0, data); err != nil {
		return nil, err
	}
	return data, nil
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

var (
	_ replication.RangeStore   = (*remoteStore)(nil)
	_ replication.ScatterStore = (*remoteStore)(nil)
	_ ec.ShardStore            = (*remoteStore)(nil)
)

// GetAtInto implements replication.RangeStore: a one-sided read of the
// len(dst) bytes at offset off within the payload stored on one node.
// Failover across the replica or shard set is the policy's job.
func (s *remoteStore) GetAtInto(ctx context.Context, node replication.NodeID, id replication.EntryID, off int, dst []byte) error {
	h, err := s.handle(node, id)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > h.dataLen {
		return fmt.Errorf("core: range [%d,%d) exceeds payload %d", off, off+len(dst), h.dataLen)
	}
	return s.read(ctx, node, h, off, dst)
}

// GetInto implements replication.ScatterStore: a one-sided read of the whole
// payload directly into the front of dst — a replicated read lands in the
// caller's buffer, a striped one lands each shard in its slice of it, with
// no copy in between. It returns the payload's length; a dst too short for it
// is refused before the fabric is touched.
func (s *remoteStore) GetInto(ctx context.Context, node replication.NodeID, id replication.EntryID, dst []byte) (int, error) {
	h, err := s.handle(node, id)
	if err != nil {
		return 0, err
	}
	if len(dst) < h.dataLen {
		return 0, fmt.Errorf("core: dst holds %d bytes, entry %d stores %d", len(dst), id, h.dataLen)
	}
	if err := s.read(ctx, node, h, 0, dst[:h.dataLen]); err != nil {
		return 0, err
	}
	return h.dataLen, nil
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

// handleCount reports how many remote blocks this node tracks (tests).
func (s *remoteStore) handleCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.handles)
}
