package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/pagetable"
	"godm/internal/placement"
	"godm/internal/simnet"
	"godm/internal/transport"
)

// testCluster wires n nodes over a simulated fabric sharing one directory.
type testCluster struct {
	env    *des.Env
	fabric *simnet.Fabric
	dir    *cluster.Directory
	nodes  []*Node
}

func newTestCluster(t testing.TB, n int, shape func(id transport.NodeID) Config) *testCluster {
	return newTestClusterGrouped(t, n, n, shape)
}

// newTestClusterGrouped wires n nodes partitioned into groups of groupSize.
func newTestClusterGrouped(t testing.TB, n, groupSize int, shape func(id transport.NodeID) Config) *testCluster {
	t.Helper()
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: groupSize, HeartbeatTimeout: 3})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{env: env, fabric: fabric, dir: dir}
	for i := 1; i <= n; i++ {
		id := transport.NodeID(i)
		ep, err := fabric.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := shape(id)
		node, err := NewNode(cfg, ep, dir)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, node)
	}
	return tc
}

// handleCount reports how many remote blocks the owner side tracks.
func (s *remoteStore) handleCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.handles)
}

// getAt reads the n bytes at off within entry id into a fresh buffer.
func getAt(ctx context.Context, vs *VirtualServer, id pagetable.EntryID, off, n int) ([]byte, error) {
	data := make([]byte, n)
	return data, vs.GetAtInto(ctx, id, off, data)
}

// run executes body as one simulation process.
func (tc *testCluster) run(t testing.TB, body func(ctx context.Context, p *des.Proc)) {
	t.Helper()
	tc.env.Go("test", func(p *des.Proc) {
		body(des.NewContext(context.Background(), p), p)
	})
	if err := tc.env.Run(); err != nil {
		t.Fatal(err)
	}
}

// smallConfig returns a node with a tiny shared pool (2 slabs of 4 KiB) and
// a roomy receive pool, so tests can exercise the overflow path.
func smallConfig(id transport.NodeID) Config {
	return Config{
		ID:                id,
		SharedPoolBytes:   8192,
		SendPoolBytes:     8192,
		RecvPoolBytes:     1 << 20,
		SlabSize:          4096,
		ReplicationFactor: 3,
	}
}

func TestConfigValidation(t *testing.T) {
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	dir, _ := cluster.NewDirectory(cluster.DefaultConfig())
	ep, _ := fabric.Attach(1)
	bad := smallConfig(1)
	bad.RecvPoolBytes = 1000 // not a slab multiple
	if _, err := NewNode(bad, ep, dir); err == nil {
		t.Fatal("expected error for bad recv pool size")
	}
	bad = smallConfig(1)
	bad.ReplicationFactor = 0
	if _, err := NewNode(bad, ep, dir); err == nil {
		t.Fatal("expected error for zero replication factor")
	}
	if _, err := NewNode(smallConfig(1), nil, dir); err == nil {
		t.Fatal("expected error for nil endpoint")
	}
}

func TestAddServerDuplicate(t *testing.T) {
	tc := newTestCluster(t, 1, smallConfig)
	if _, err := tc.nodes[0].AddServer("vm0", 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.nodes[0].AddServer("vm0", 1024); err == nil {
		t.Fatal("expected duplicate error")
	}
	if _, err := tc.nodes[0].Server("vm0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.nodes[0].Server("missing"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("err = %v, want ErrUnknownServer", err)
	}
}

func TestPutSharedGetRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 1, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{0xAB}, 2000)
		if err := vs.PutShared(7, data, 2048, 4096); err != nil {
			t.Errorf("PutShared: %v", err)
			return
		}
		got, loc, err := vs.Get(ctx, 7)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		if loc.Tier != pagetable.TierSharedMemory {
			t.Errorf("tier = %v, want shared", loc.Tier)
		}
		if !bytes.Equal(got[:2000], data) {
			t.Error("data mismatch")
		}
	})
}

func TestPutOverflowsToRemote(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		// Shared pool holds 2 blocks of 4096; the third Put must go remote.
		var tiers []pagetable.Tier
		for id := pagetable.EntryID(0); id < 3; id++ {
			data := bytes.Repeat([]byte{byte(id)}, 4096)
			tier, err := vs.Put(ctx, id, data, 4096, 4096)
			if err != nil {
				t.Errorf("Put(%d): %v", id, err)
				return
			}
			tiers = append(tiers, tier)
		}
		if tiers[0] != pagetable.TierSharedMemory || tiers[1] != pagetable.TierSharedMemory {
			t.Errorf("tiers = %v, want first two shared", tiers)
		}
		if tiers[2] != pagetable.TierRemote {
			t.Errorf("third tier = %v, want remote", tiers[2])
		}
		// Remote entry readable, replicated to 3 distinct nodes != self.
		got, loc, err := vs.Get(ctx, 2)
		if err != nil {
			t.Errorf("Get remote: %v", err)
			return
		}
		if got[0] != 2 {
			t.Error("remote data mismatch")
		}
		if len(loc.Replicas) != 2 {
			t.Errorf("replicas = %v, want 2", loc.Replicas)
		}
		seen := map[pagetable.NodeID]bool{loc.Primary: true}
		for _, r := range loc.Replicas {
			if seen[r] {
				t.Errorf("duplicate replica %d", r)
			}
			seen[r] = true
		}
		if seen[pagetable.NodeID(1)] {
			t.Error("self selected as replica")
		}
	})
	st := tc.nodes[0].Stats()
	if st.SharedPuts != 2 || st.RemotePuts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetFailsOverWhenPrimaryPartitioned(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{9}, 4096)
		if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		loc, _ := vs.Location(1)
		tc.fabric.Partition(1, transport.NodeID(loc.Primary))
		got, _, err := vs.Get(ctx, 1)
		if err != nil {
			t.Errorf("Get after partition: %v", err)
			return
		}
		if got[0] != 9 {
			t.Error("data mismatch after failover")
		}
	})
}

func TestPutRemoteAllNodesFullFallsThrough(t *testing.T) {
	tc := newTestCluster(t, 4, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.RecvPoolBytes = 4096 // one block per node
		return cfg
	})
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{1}, 4096)
		// First remote put consumes the single block on all 3 peers.
		if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
			t.Errorf("first PutRemote: %v", err)
			return
		}
		err := vs.PutRemote(ctx, 2, data, 4096, 4096)
		if !errors.Is(err, ErrRemoteFull) {
			t.Errorf("err = %v, want ErrRemoteFull", err)
		}
	})
	// The aborted write left nothing behind on the owner: only entry 1's
	// copies are tracked.
	if handles := tc.nodes[0].remote.handleCount(); handles != 3 {
		t.Errorf("owner tracks %d handles after the abort, want 3", handles)
	}
}

// TestRemoteMapsDrainToEmpty: the owner-side map is bounded by the live
// entries, not by every key ever written — the swap layer's batch ids only
// ever grow, so a record that outlives its entry is a leak.
func TestRemoteMapsDrainToEmpty(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{9}, 512)
		for id := pagetable.EntryID(0); id < 10000; id++ {
			if err := vs.PutRemote(ctx, id, data, 512, 512); err != nil {
				t.Errorf("PutRemote %d: %v", id, err)
				return
			}
			if err := vs.Delete(ctx, id); err != nil {
				t.Errorf("Delete %d: %v", id, err)
				return
			}
		}
	})
	if handles := tc.nodes[0].remote.handleCount(); handles != 0 {
		t.Errorf("owner still tracks %d handles after deleting everything", handles)
	}
}

func TestDeleteReleasesRemoteBlocks(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{5}, 4096)
		if err := vs.PutRemote(ctx, 3, data, 4096, 4096); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		if tc.nodes[0].remote.handleCount() != 3 {
			t.Errorf("handleCount = %d, want 3", tc.nodes[0].remote.handleCount())
		}
		if err := vs.Delete(ctx, 3); err != nil {
			t.Errorf("Delete: %v", err)
			return
		}
		if tc.nodes[0].remote.handleCount() != 0 {
			t.Errorf("handleCount after delete = %d, want 0", tc.nodes[0].remote.handleCount())
		}
		if _, _, err := vs.Get(ctx, 3); !errors.Is(err, pagetable.ErrNotFound) {
			t.Errorf("Get after delete err = %v, want ErrNotFound", err)
		}
		// Idempotent delete.
		if err := vs.Delete(ctx, 3); err != nil {
			t.Errorf("second Delete: %v", err)
		}
	})
	// The remote blocks were actually freed on the hosts.
	for _, n := range tc.nodes[1:] {
		if st := n.RecvPool().Stats(); st.LiveBlocks != 0 {
			t.Fatalf("node %d recv pool has %d live blocks", n.ID(), st.LiveBlocks)
		}
	}
}

func TestEvictionTriggersRepair(t *testing.T) {
	tc := newTestCluster(t, 5, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{7}, 4096)
		if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		before, _ := vs.Location(1)
		victim := before.Primary
		// The node hosting the primary evicts everything.
		victimNode := tc.nodes[victim-1]
		reclaimed, err := victimNode.EvictRecvSlabs(ctx, 1<<20)
		if err != nil {
			t.Errorf("EvictRecvSlabs: %v", err)
			return
		}
		if reclaimed == 0 {
			t.Error("nothing reclaimed")
			return
		}
		// Owner repairs on next maintenance pass.
		repaired, err := tc.nodes[0].Maintain(ctx)
		if err != nil {
			t.Errorf("Maintain: %v", err)
			return
		}
		if repaired != 1 {
			t.Errorf("repaired = %d, want 1", repaired)
		}
		after, _ := vs.Location(1)
		all := append([]pagetable.NodeID{after.Primary}, after.Replicas...)
		for _, n := range all {
			if n == victim {
				t.Errorf("victim %d still in replica set %v", victim, all)
			}
		}
		if len(all) != 3 {
			t.Errorf("replica set %v, want 3 nodes", all)
		}
		got, _, err := vs.Get(ctx, 1)
		if err != nil || got[0] != 7 {
			t.Errorf("Get after repair = %v, %v", got, err)
		}
	})
	if tc.nodes[0].Stats().RepairsDone != 1 {
		t.Fatalf("RepairsDone = %d, want 1", tc.nodes[0].Stats().RepairsDone)
	}
}

func TestBalloonToServer(t *testing.T) {
	tc := newTestCluster(t, 1, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	var granted int64
	vs.SetBalloonCallback(func(b int64) { granted += b })
	// Shared pool is empty (all slabs unregistered): budget moves freely.
	moved, err := tc.nodes[0].BalloonToServer("vm0", 8192)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		// No registered slabs yet: ShrinkEmpty releases only registered free
		// slabs, so nothing moves.
		t.Fatalf("moved = %d, want 0 with empty pool", moved)
	}
	// Register slabs by allocating and freeing.
	h, err := tc.nodes[0].SharedPool().Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.nodes[0].SharedPool().Free(h); err != nil {
		t.Fatal(err)
	}
	moved, err = tc.nodes[0].BalloonToServer("vm0", 8192)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 4096 {
		t.Fatalf("moved = %d, want 4096", moved)
	}
	if granted != 4096 {
		t.Fatalf("callback granted = %d, want 4096", granted)
	}
	if tc.nodes[0].Stats().BalloonedBytes != 4096 {
		t.Fatalf("BalloonedBytes = %d", tc.nodes[0].Stats().BalloonedBytes)
	}
}

func TestPutUpdatesReplaceOldVersion(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		v1 := bytes.Repeat([]byte{1}, 4096)
		v2 := bytes.Repeat([]byte{2}, 4096)
		if err := vs.PutShared(1, v1, 4096, 4096); err != nil {
			t.Errorf("v1: %v", err)
			return
		}
		if err := vs.PutShared(1, v2, 4096, 4096); err != nil {
			t.Errorf("v2: %v", err)
			return
		}
		got, _, err := vs.Get(ctx, 1)
		if err != nil || got[0] != 2 {
			t.Errorf("Get = %v, %v; want v2", got, err)
		}
		// Only one block live: the old version was freed.
		if st := tc.nodes[0].SharedPool().Stats(); st.LiveBlocks != 1 {
			t.Errorf("LiveBlocks = %d, want 1", st.LiveBlocks)
		}
	})
}

// TestReplicatedOverwriteKeepsEveryCopy is the rf3 overwrite regression test.
// The owner keeps one handle per (donor, key), so the old write-new-then-
// drop-old order freed the copy just written on every donor the new and old
// sets share. 64 entries are parked, then overwritten in reverse order so a
// round-robin balancer's old and new sets meet at every possible offset;
// afterwards every holder the memory map names must serve the new bytes, and
// the donors must hold exactly three blocks per entry.
func TestReplicatedOverwriteKeepsEveryCopy(t *testing.T) {
	tc := newTestCluster(t, 8, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		if id == 1 {
			cfg.Balancer = placement.NewRoundRobin()
		}
		return cfg
	})
	owner := tc.nodes[0]
	vs, _ := owner.AddServer("vm0", 0)
	const entries = 64
	payload := func(id, version int) []byte {
		return bytes.Repeat([]byte{byte(id), byte(version + 1)}, 2048)
	}
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		for i := 0; i < entries; i++ {
			if err := vs.PutRemote(ctx, pagetable.EntryID(i), payload(i, 0), 4096, 4096); err != nil {
				t.Errorf("PutRemote %d: %v", i, err)
				return
			}
		}
		for i := entries - 1; i >= 0; i-- {
			id := pagetable.EntryID(i)
			if err := vs.PutRemote(ctx, id, payload(i, 1), 4096, 4096); err != nil {
				t.Errorf("overwrite %d: %v", i, err)
				return
			}
			loc, err := vs.Location(id)
			if err != nil {
				t.Errorf("entry %d lost its location: %v", i, err)
				continue
			}
			for _, h := range append([]pagetable.NodeID{loc.Primary}, loc.Replicas...) {
				got, err := vs.ReadFrom(ctx, id, transport.NodeID(h))
				if err != nil || !bytes.Equal(got, payload(i, 1)) {
					t.Errorf("entry %d: holder %d does not serve the new bytes: %v", i, h, err)
				}
				if !tc.nodes[h-1].HostsRemoteKey(owner.ID(), vs.WireKey(id)) {
					t.Errorf("entry %d: holder %d hosts no block for it", i, h)
				}
			}
		}
	})
	live := 0
	for _, n := range tc.nodes[1:] {
		live += n.RecvPool().Stats().LiveBlocks
	}
	if live != 3*entries {
		t.Errorf("donors hold %d live blocks, want %d", live, 3*entries)
	}
}

func TestCrossServerIsolation(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	vs1, _ := tc.nodes[0].AddServer("vm1", 4096)
	vs2, _ := tc.nodes[0].AddServer("vm2", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		d1 := bytes.Repeat([]byte{0x11}, 4096)
		d2 := bytes.Repeat([]byte{0x22}, 4096)
		if err := vs1.PutRemote(ctx, 42, d1, 4096, 4096); err != nil {
			t.Errorf("vs1 put: %v", err)
			return
		}
		if err := vs2.PutRemote(ctx, 42, d2, 4096, 4096); err != nil {
			t.Errorf("vs2 put: %v", err)
			return
		}
		g1, _, err := vs1.Get(ctx, 42)
		if err != nil || g1[0] != 0x11 {
			t.Errorf("vs1 get = %v, %v", g1, err)
		}
		g2, _, err := vs2.Get(ctx, 42)
		if err != nil || g2[0] != 0x22 {
			t.Errorf("vs2 get = %v, %v", g2, err)
		}
	})
}

// TestFig2AccessPath reproduces the Figure 2 walk-through: a virtual server
// on node A parks a data entry on node B through the RDMC/RDMS path, then
// reads it back with a one-sided RDMA read.
func TestFig2AccessPath(t *testing.T) {
	tc := newTestCluster(t, 2, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.ReplicationFactor = 1 // two-node scenario: single copy on B
		return cfg
	})
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{0x42}, 4096)
		if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		loc, _ := vs.Location(1)
		if loc.Primary != 2 {
			t.Errorf("primary = %d, want node B (2)", loc.Primary)
		}
		got, _, err := vs.Get(ctx, 1)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get = %v", err)
		}
	})
	// Node B hosts exactly one remote block on behalf of node A.
	if st := tc.nodes[1].Stats(); st.RemoteAllocs != 1 {
		t.Fatalf("node B RemoteAllocs = %d, want 1", st.RemoteAllocs)
	}
}
