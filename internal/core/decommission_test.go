package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/pagetable"
	"godm/internal/simnet"
	"godm/internal/transport"
)

// findHost returns the node (other than exclude) hosting a block parked
// under (owner, key), or 0.
func findHost(tc *testCluster, owner transport.NodeID, key uint64, exclude transport.NodeID) transport.NodeID {
	for _, n := range tc.nodes {
		if n.cfg.ID == exclude {
			continue
		}
		if n.HostsRemoteKey(owner, key) {
			return n.cfg.ID
		}
	}
	return 0
}

func TestDecommissionMigratesAndRedirects(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	data := bytes.Repeat([]byte{0x5A}, 2048)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 9, data); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		if err := client.SyncMap(ctx, 1); err != nil {
			t.Errorf("SyncMap: %v", err)
			return
		}
		moved, err := client.Decommission(ctx, 2)
		if err != nil {
			t.Errorf("Decommission: %v", err)
			return
		}
		if moved != 1 {
			t.Errorf("moved = %d, want 1", moved)
		}
		if !tc.nodes[1].Draining() {
			t.Error("node 2 should report draining")
		}
		// The block now lives on another node, still recorded under its true
		// owner (node 1, the putter) even though the drainer issued the
		// migration alloc on its behalf.
		host := findHost(tc, 1, 9, 2)
		if host == 0 {
			t.Error("migrated block not found on any peer")
			return
		}
		// Refresh the map: the delta stream records node 2's departure.
		if err := client.SyncMap(ctx, 1); err != nil {
			t.Errorf("SyncMap after drain: %v", err)
			return
		}
		if client.Map().Alive(2) {
			t.Error("client map should show node 2 gone")
		}
		// Read through the stale handle: one redirect, then correct bytes.
		got, err := client.Get(ctx, 2, 9)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get after drain = %d bytes, %v", len(got), err)
			return
		}
		if r := client.Redirects(); r != 1 {
			t.Errorf("redirects = %d, want 1", r)
		}
		// The handle was rewritten: the next read goes straight to the new
		// home with no further locate hops.
		if _, err := client.Get(ctx, 2, 9); err != nil {
			t.Errorf("second Get: %v", err)
			return
		}
		if r := client.Redirects(); r != 1 {
			t.Errorf("redirects after rewrite = %d, want still 1", r)
		}
		// Delete follows the rewritten home and frees the migrated block.
		if err := client.Delete(ctx, 2, 9); err != nil {
			t.Errorf("Delete: %v", err)
			return
		}
		if h := findHost(tc, 1, 9, 2); h != 0 {
			t.Errorf("block still hosted on node %d after delete", h)
		}
	})
}

// TestDeleteAllFollowsRedirectHome: once a read has followed a decommission
// redirect, DeleteAll must release the block at its new home, as Delete does.
// Releasing at the drained host, which no longer holds the block, would
// strand the migrated copy on its successor.
func TestDeleteAllFollowsRedirectHome(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	data := bytes.Repeat([]byte{0x5A}, 2048)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 9, data); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		if _, err := client.Decommission(ctx, 2); err != nil {
			t.Errorf("Decommission: %v", err)
			return
		}
		successor := findHost(tc, 1, 9, 2)
		if successor == 0 {
			t.Error("migrated block not found on any peer")
			return
		}
		if err := client.SyncMap(ctx, 1); err != nil {
			t.Errorf("SyncMap after drain: %v", err)
			return
		}
		if got, err := client.Get(ctx, 2, 9); err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get after drain = %d bytes, %v", len(got), err)
			return
		}
		if r := client.Redirects(); r != 1 {
			t.Errorf("redirects = %d, want 1 (the handle must record the new home)", r)
		}
		if err := client.DeleteAll(ctx, 2, []uint64{9}); err != nil {
			t.Errorf("DeleteAll: %v", err)
		}
		if live := tc.nodes[successor-1].RecvPool().Stats().LiveBlocks; live != 0 {
			t.Errorf("successor node %d still hosts %d blocks after DeleteAll: migrated block stranded", successor, live)
		}
	})
}

// TestGetAllFollowsRedirectHome: once a read has followed a decommission
// redirect the handle names an offset in the successor's region. A batch read
// must go there, as Get does: reading the drained host at that offset returns
// whatever sits there — zeros, or a stranger's bytes — with a nil error. Key
// 10 rides along unchased: its handle still names the drained host, which
// keeps migrated bytes intact, so it stays on the span path.
func TestGetAllFollowsRedirectHome(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	data := bytes.Repeat([]byte{0x5A}, 2048)
	other := bytes.Repeat([]byte{0xC3}, 2048)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		// Fill the front of every successor's region, so the migrated block
		// lands at an offset other than the one it left.
		for _, peer := range []transport.NodeID{1, 3, 4} {
			for k := uint64(100); k < 103; k++ {
				if err := client.Put(ctx, peer, k, bytes.Repeat([]byte{byte(k)}, 2048)); err != nil {
					t.Errorf("Put filler on node %d: %v", peer, err)
					return
				}
			}
		}
		if err := client.PutAll(ctx, 2, []Entry{{Key: 9, Data: data}, {Key: 10, Data: other}}); err != nil {
			t.Errorf("PutAll: %v", err)
			return
		}
		if _, err := client.Decommission(ctx, 2); err != nil {
			t.Errorf("Decommission: %v", err)
			return
		}
		if err := client.SyncMap(ctx, 1); err != nil {
			t.Errorf("SyncMap after drain: %v", err)
			return
		}
		if got, err := client.Get(ctx, 2, 9); err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get after drain = %d bytes, %v", len(got), err)
			return
		}
		if r := client.Redirects(); r != 1 {
			t.Errorf("redirects = %d, want 1 (the handle must record the new home)", r)
		}
		keys := []uint64{9, 10}
		dsts := [][]byte{make([]byte, 2048), make([]byte, 2048)}
		if err := client.GetAllInto(ctx, 2, keys, dsts); err != nil {
			t.Errorf("GetAllInto: %v", err)
			return
		}
		if !bytes.Equal(dsts[0], data) || !bytes.Equal(dsts[1], other) {
			t.Errorf("GetAllInto returned %x.. and %x.., want %x.. and %x..", dsts[0][:4], dsts[1][:4], data[:4], other[:4])
		}
		got, err := client.GetAll(ctx, 2, keys)
		if err != nil {
			t.Errorf("GetAll: %v", err)
			return
		}
		if !bytes.Equal(got[9], data) || !bytes.Equal(got[10], other) {
			t.Errorf("GetAll returned %x.. and %x.., want %x.. and %x..", got[9][:4], got[10][:4], data[:4], other[:4])
		}
	})
}

// TestPutAllReleasesDisplacedBlockAtItsHome: the block a PutAll overwrite
// displaces is released where it lives. The handle is rewritten by hand to
// the state a followed redirect leaves (put to node 2, now homed on node 4),
// because a drained node refuses the overwrite itself.
func TestPutAllReleasesDisplacedBlockAtItsHome(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	fresh := bytes.Repeat([]byte{0xA5}, 2048)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 4, 9, bytes.Repeat([]byte{0x5A}, 2048)); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		client.mu.Lock()
		h := client.handles[clientKey{node: 4, key: 9}]
		delete(client.handles, clientKey{node: 4, key: 9})
		h.home = 4
		client.handles[clientKey{node: 2, key: 9}] = h
		client.mu.Unlock()
		if err := client.PutAll(ctx, 2, []Entry{{Key: 9, Data: fresh}}); err != nil {
			t.Errorf("PutAll: %v", err)
			return
		}
		if live := tc.nodes[3].RecvPool().Stats().LiveBlocks; live != 0 {
			t.Errorf("node 4 still hosts %d blocks: displaced block stranded at its home", live)
		}
		if got, err := client.Get(ctx, 2, 9); err != nil || !bytes.Equal(got, fresh) {
			t.Errorf("Get after overwrite = %d bytes, %v", len(got), err)
		}
		if live := tc.nodes[1].RecvPool().Stats().LiveBlocks; live != 1 {
			t.Errorf("node 2 hosts %d blocks, want the 1 fresh block", live)
		}
	})
}

func TestDecommissionTwoHopChain(t *testing.T) {
	tc := newTestCluster(t, 5, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	data := bytes.Repeat([]byte{0xC3}, 1024)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 11, data); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		if err := client.SyncMap(ctx, 1); err != nil {
			t.Errorf("SyncMap: %v", err)
			return
		}
		if _, err := client.Decommission(ctx, 2); err != nil {
			t.Errorf("Decommission 2: %v", err)
			return
		}
		// The successor holds the block under its true owner.
		first := findHost(tc, 1, 11, 2)
		if first == 0 {
			t.Error("no first successor hosts the block")
			return
		}
		// Drain the successor too: the worst sanctioned chain.
		if _, err := client.Decommission(ctx, first); err != nil {
			t.Errorf("Decommission %d: %v", first, err)
			return
		}
		if err := client.SyncMap(ctx, 1); err != nil {
			t.Errorf("SyncMap: %v", err)
			return
		}
		got, err := client.Get(ctx, 2, 11)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get after two drains = %d bytes, %v", len(got), err)
			return
		}
		if r := client.Redirects(); r != 2 {
			t.Errorf("redirects = %d, want 2", r)
		}
	})
}

func TestDrainingNodeRefusesAllocs(t *testing.T) {
	tc := newTestCluster(t, 3, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if _, err := client.Decommission(ctx, 2); err != nil {
			t.Errorf("Decommission: %v", err)
			return
		}
		err := client.Put(ctx, 2, 3, bytes.Repeat([]byte{1}, 600))
		if !errors.Is(err, ErrRemoteFull) {
			t.Errorf("Put to draining node = %v, want ErrRemoteFull", err)
		}
		// Idempotent: a second drain request migrates nothing and succeeds.
		moved, err := client.Decommission(ctx, 2)
		if err != nil || moved != 0 {
			t.Errorf("second Decommission = %d, %v; want 0, nil", moved, err)
		}
	})
}

// TestDecommissionRepointsOwnerPageTable drains a node hosting a replicated
// virtual-server entry and checks the owner's remote map and page table
// follow the moved copy (opMoved), so remote gets need no redirect at all.
func TestDecommissionRepointsOwnerPageTable(t *testing.T) {
	tc := newTestCluster(t, 4, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.ReplicationFactor = 2
		return cfg
	})
	vs, err := tc.nodes[0].AddServer("vm0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x42}, 3000)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := vs.PutRemote(ctx, 21, data, 4096, len(data)); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		key := vs.WireKey(21)
		var host *Node
		for _, n := range tc.nodes[1:] {
			if n.HostsRemoteKey(1, key) {
				host = n
				break
			}
		}
		if host == nil {
			t.Error("no node hosts the replicated entry")
			return
		}
		if _, err := host.Decommission(ctx); err != nil {
			t.Errorf("Decommission node %d: %v", host.cfg.ID, err)
			return
		}
		// The owner's page table must no longer reference the drained node.
		loc, err := vs.Location(21)
		if err != nil {
			t.Errorf("Location: %v", err)
			return
		}
		drained := pagetable.NodeID(host.cfg.ID)
		if loc.Primary == drained {
			t.Errorf("primary still points at drained node %d", host.cfg.ID)
		}
		for _, r := range loc.Replicas {
			if r == drained {
				t.Errorf("replica set still references drained node %d", host.cfg.ID)
			}
		}
		got, _, err := vs.Get(ctx, 21)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get after drain = %d bytes, %v", len(got), err)
		}
	})
}

// TestHeartbeatRoundConvergence runs per-node directories connected only by
// the heartbeat tree and asserts second-hand liveness: when a member goes
// silent, its watcher detects the death first-hand and every other directory
// learns it through epoch-tagged map deltas within a few rounds.
func TestHeartbeatRoundConvergence(t *testing.T) {
	const n = 6
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	nodes := make([]*Node, 0, n)
	for i := 1; i <= n; i++ {
		id := transport.NodeID(i)
		ep, err := fabric.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := cluster.NewDirectory(cluster.Config{GroupSize: 3, HeartbeatTimeout: 3})
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(smallConfig(id), ep, dir)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	// Static seed membership: every directory starts knowing all nodes (the
	// deployment bootstrap); the tree keeps the views alive from here on.
	for _, node := range nodes {
		for j := 1; j <= n; j++ {
			node.dir.Join(cluster.NodeID(j), 1<<20)
		}
	}
	env.Go("sim", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		const deadFrom = 4 // node 6 goes silent starting this round
		for round := 1; round <= 12; round++ {
			for i, node := range nodes {
				if i == n-1 && round >= deadFrom {
					continue
				}
				node.HeartbeatRound(ctx)
			}
		}
		for i, node := range nodes[:n-1] {
			if node.dir.Alive(cluster.NodeID(n)) {
				t.Errorf("node %d still sees node %d alive", i+1, n)
			}
			root, ok := node.dir.RootLeader()
			if !ok || root == cluster.NodeID(n) {
				t.Errorf("node %d root = %d, ok=%v", i+1, root, ok)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLocateAnswersItsAskerOnly: keys are numbered per owner, so a locate is
// about the asker's key. Another owner's block that was issued the offset the
// asker's released block had, and another owner's drain tombstone, both carry
// the same key number and are not it: an stOK there would let Client.settle
// clear a doubted handle that names a stranger's block.
func TestLocateAnswersItsAskerOnly(t *testing.T) {
	tc := newTestCluster(t, 3, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.PoolShards = 1 // one free list: a freed offset is the next one issued
		return cfg
	})
	a, b := NewClient(tc.nodes[0].ep), NewClient(tc.nodes[1].ep)
	const donor = transport.NodeID(3)
	offsetOf := func(c *Client, key uint64) int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.handles[clientKey{node: donor, key: key}].offset
	}
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := a.Put(ctx, donor, 7, []byte("a's seven")); err != nil {
			t.Errorf("a.Put: %v", err)
			return
		}
		off := offsetOf(a, 7)
		if err := a.Delete(ctx, donor, 7); err != nil {
			t.Errorf("a.Delete: %v", err)
			return
		}
		if err := b.Put(ctx, donor, 7, []byte("b's seven")); err != nil {
			t.Errorf("b.Put: %v", err)
			return
		}
		if got := offsetOf(b, 7); got != off {
			t.Errorf("b's key 7 landed at %d, the test needs it to reuse a's offset %d", got, off)
			return
		}
		if _, inPlace, err := a.locate(ctx, donor, 7, off); inPlace || !errors.Is(err, errRemote) {
			t.Errorf("a's locate of its released key 7 = in place %v, %v; b's block lives there now", inPlace, err)
		}
		if _, inPlace, err := b.locate(ctx, donor, 7, off); !inPlace || err != nil {
			t.Errorf("b's locate of its own key 7 = in place %v, %v", inPlace, err)
		}
		// Drain the donor: b's key 7 leaves a tombstone behind, a never parked
		// a key 7 that moved.
		if moved, err := b.Decommission(ctx, donor); err != nil || moved != 1 {
			t.Errorf("Decommission = %d moved, %v; want 1", moved, err)
			return
		}
		if rd, inPlace, err := b.locate(ctx, donor, 7, off); inPlace || err != nil || rd.Node == donor {
			t.Errorf("b's locate after the drain = %+v, in place %v, %v; want a redirect", rd, inPlace, err)
		}
		if rd, inPlace, err := a.locate(ctx, donor, 7, off); !errors.Is(err, errRemote) {
			t.Errorf("a's locate after the drain = %+v, in place %v, %v; b's tombstone is not a's", rd, inPlace, err)
		}
	})
}
