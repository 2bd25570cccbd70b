package core

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/replication"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

// TestEvictSelfOwnedQueuesRepairOnce pins the regression the owner
// index must not reintroduce: a node under memory pressure evicting its own
// parked blocks queues exactly one repair per key, even when several blocks
// carry the same (owner,key) — within one slab or across slabs evicted on
// successive LRU passes. Duplicate pendingRepairs would make later Maintain
// passes re-repair entries that are already whole.
func TestEvictSelfOwnedQueuesRepairOnce(t *testing.T) {
	tc := newTestCluster(t, 1, smallConfig)
	n := tc.nodes[0]
	const key = uint64(42)
	ref := ownerRef{owner: n.cfg.ID, key: key}
	// Two full-slab blocks (distinct slabs, evicted on separate passes) plus
	// two half-slab blocks sharing a third slab, all under the same key.
	for _, class := range []int{4096, 4096, 2048, 2048} {
		h, err := n.recv.Alloc(class)
		if err != nil {
			t.Fatal(err)
		}
		n.addOwner(h, ref, replication.Shard{})
	}
	if !n.HostsRemoteKey(n.cfg.ID, key) {
		t.Fatal("HostsRemoteKey = false before eviction")
	}
	reclaimed, err := n.EvictRecvSlabs(context.Background(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed == 0 {
		t.Fatal("nothing reclaimed")
	}
	if n.HostsRemoteKey(n.cfg.ID, key) {
		t.Fatal("HostsRemoteKey = true after evicting everything")
	}
	n.repairMu.Lock()
	pending := append([]pendingRepair(nil), n.pendingRepairs...)
	n.repairMu.Unlock()
	if len(pending) != 1 {
		t.Fatalf("pendingRepairs = %v, want exactly one entry for key %d", pending, key)
	}
	if pending[0].key != key || pending[0].lost != n.cfg.ID {
		t.Fatalf("pendingRepairs[0] = %+v, want {key:%d lost:%d}", pending[0], key, n.cfg.ID)
	}
}

// TestReleaseFreesEveryEntry covers the multi-entry release path: duplicate
// offsets collapse, already-gone offsets are skipped without error, every
// live entry is freed, and the owner index is left clean.
func TestReleaseFreesEveryEntry(t *testing.T) {
	tc := newTestCluster(t, 1, smallConfig)
	n := tc.nodes[0]
	owner := transport.NodeID(9)
	var offs []int64
	for i := 0; i < 3; i++ {
		h, err := n.recv.Alloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		n.addOwner(h, ownerRef{owner: owner, key: uint64(i)}, replication.Shard{})
		off, err := n.recv.GlobalOffset(h)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	// Free block 0 out of band so its offset is a stale miss in the batch.
	h0, err := n.recv.HandleAt(offs[0])
	if err != nil {
		t.Fatal(err)
	}
	n.takeOwner(h0, nil)
	if err := n.recv.Free(h0); err != nil {
		t.Fatal(err)
	}
	req, err := decodeReleaseReq(encodeReleaseReq([]block{
		{key: 0, offset: offs[0]}, // stale: already freed
		{key: 1, offset: offs[1]},
		{key: 1, offset: offs[1]}, // duplicate of the same block
		{key: 2, offset: offs[2]},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkOKResp(n.handleRelease(owner, req)); err != nil {
		t.Fatalf("handleRelease: %v", err)
	}
	if st := n.recv.Stats(); st.LiveBlocks != 0 {
		t.Fatalf("recv pool still has %d live blocks", st.LiveBlocks)
	}
	for k := uint64(0); k < 3; k++ {
		if n.HostsRemoteKey(owner, k) {
			t.Fatalf("owner index still lists key %d after release", k)
		}
	}
}

// parallelRig wires one donor node and a client endpoint over loopback TCP —
// the smallest real-concurrency host-path rig (simnet is a discrete-event
// simulation and serializes everything, so it cannot exercise the locks).
func parallelRig(t *testing.T) *Client {
	t.Helper()
	donorEP, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = donorEP.Close() })
	dir, err := cluster.NewDirectory(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(Config{
		ID: 1, SharedPoolBytes: 1 << 20, SendPoolBytes: 1 << 20,
		RecvPoolBytes: 16 << 20, SlabSize: 1 << 20, ReplicationFactor: 1,
	}, donorEP, dir); err != nil {
		t.Fatal(err)
	}
	clientEP, err := tcpnet.Listen(100, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = clientEP.Close() })
	clientEP.AddPeer(1, donorEP.Addr())
	return NewClient(clientEP)
}

// TestParallelClientsOneHost drives several concurrent clients through the
// full host path — alloc, write, read, free — against one donor node over
// real TCP, with the race detector as the referee (the CI stress job runs it
// under -race with -count=3). Each worker owns a disjoint key space, so all
// interleavings must be linearizable per key.
func TestParallelClientsOneHost(t *testing.T) {
	c := parallelRig(t)
	const workers, rounds = 4, 40
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := uint64(w)<<32 | uint64(i)
				data := bytes.Repeat([]byte{byte(w + 1)}, 512+257*((w+i)%6))
				if err := c.Put(ctx, 1, key, data); err != nil {
					t.Errorf("worker %d: Put(%d): %v", w, key, err)
					return
				}
				got, err := c.Get(ctx, 1, key)
				if err != nil {
					t.Errorf("worker %d: Get(%d): %v", w, key, err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("worker %d: Get(%d) returned %d bytes, want %d", w, key, len(got), len(data))
					return
				}
				if i%2 == 0 {
					if err := c.Delete(ctx, 1, key); err != nil {
						t.Errorf("worker %d: Delete(%d): %v", w, key, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestParallelBatchClientsOneHost is the batched flavor: concurrent PutAll /
// GetAll / DeleteAll windows against one host exercise the batched owner
// bookkeeping (one hold of the index lock per batch) and the allocator's
// contiguous window placement.
func TestParallelBatchClientsOneHost(t *testing.T) {
	c := parallelRig(t)
	const workers, rounds, window = 4, 10, 8
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				entries := make([]Entry, window)
				keys := make([]uint64, window)
				for j := range entries {
					key := uint64(w)<<32 | uint64(i*window+j)
					keys[j] = key
					entries[j] = Entry{Key: key, Data: bytes.Repeat([]byte{byte(j + 1)}, 600)}
				}
				if err := c.PutAll(ctx, 1, entries); err != nil {
					t.Errorf("worker %d: PutAll: %v", w, err)
					return
				}
				got, err := c.GetAll(ctx, 1, keys)
				if err != nil {
					t.Errorf("worker %d: GetAll: %v", w, err)
					return
				}
				for j, key := range keys {
					if want := entries[j].Data; !bytes.Equal(got[key], want) {
						t.Errorf("worker %d: GetAll[%d] mismatch", w, key)
						return
					}
				}
				if err := c.DeleteAll(ctx, 1, keys); err != nil {
					t.Errorf("worker %d: DeleteAll: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDonorFitsMixedClassesWithinItsBudget: a donor refuses a put only when
// its receive pool has neither a free block of the class nor the budget for
// another slab. 300 puts of 4 KiB under distinct keys fill one of the eight
// 1 MiB slabs and part of a second, so a 512 B entry still fits: there is
// budget for six more slabs.
func TestDonorFitsMixedClassesWithinItsBudget(t *testing.T) {
	tc := newTestCluster(t, 2, func(id transport.NodeID) Config {
		cfg := DefaultConfig(id)
		cfg.RecvPoolBytes = 8 << 20
		return cfg
	})
	client := NewClient(tc.nodes[0].ep)
	rng := rand.New(rand.NewSource(1))
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		for key := uint64(0); key < 300; key++ {
			data := make([]byte, 4096)
			rng.Read(data)
			if err := client.Put(ctx, 2, key, data); err != nil {
				t.Errorf("4 KiB put %d: %v", key, err)
				return
			}
		}
		if err := client.Put(ctx, 2, 1000, make([]byte, 300)); err != nil {
			st := tc.nodes[1].recv.Stats()
			t.Errorf("512 B put refused with %d of %d bytes registered and %d live: %v",
				st.RegisteredBytes, st.MaxBytes, st.LiveBytes, err)
		}
	})
}
