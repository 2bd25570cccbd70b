package dmcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/des"
	"godm/internal/simnet"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

// rig builds one client endpoint plus donor nodes on a simulated fabric.
type rig struct {
	env      *des.Env
	fabric   *simnet.Fabric
	clientEP *simnet.Endpoint
	peers    []transport.NodeID
	nodes    []*core.Node
}

func newRig(t *testing.T, donors int, recvBytes int64) *rig {
	t.Helper()
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	dir, err := cluster.NewDirectory(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{env: env, fabric: fabric}
	clientEP, err := fabric.Attach(100)
	if err != nil {
		t.Fatal(err)
	}
	r.clientEP = clientEP
	for i := 1; i <= donors; i++ {
		ep, err := fabric.Attach(transport.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		node, err := core.NewNode(core.Config{
			ID:                transport.NodeID(i),
			SharedPoolBytes:   1 << 20,
			SendPoolBytes:     1 << 20,
			RecvPoolBytes:     recvBytes,
			SlabSize:          1 << 20,
			ReplicationFactor: 1,
		}, ep, dir)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, node)
		r.peers = append(r.peers, transport.NodeID(i))
	}
	return r
}

func (r *rig) newCache(t *testing.T, localBytes int64) *Cache {
	t.Helper()
	c, err := New(Config{LocalBytes: localBytes, Verbs: r.clientEP, Peers: r.peers})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (r *rig) run(t *testing.T, body func(ctx context.Context)) {
	t.Helper()
	r.env.Go("client", func(p *des.Proc) {
		body(des.NewContext(context.Background(), p))
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	r := newRig(t, 1, 1<<20)
	if _, err := New(Config{LocalBytes: 0, Verbs: r.clientEP, Peers: r.peers}); err == nil {
		t.Fatal("expected error for zero budget")
	}
	if _, err := New(Config{LocalBytes: 1, Peers: r.peers}); err == nil {
		t.Fatal("expected error for nil verbs")
	}
	if _, err := New(Config{LocalBytes: 1, Verbs: r.clientEP}); !errors.Is(err, ErrNoPeers) {
		t.Fatal("expected ErrNoPeers")
	}
}

func TestLocalHit(t *testing.T) {
	r := newRig(t, 2, 1<<20)
	c := r.newCache(t, 1<<20)
	r.run(t, func(ctx context.Context) {
		if err := c.Put(ctx, "k", []byte("v")); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		got, ok, err := c.Get(ctx, "k")
		if err != nil || !ok || string(got) != "v" {
			t.Errorf("Get = %q %v %v", got, ok, err)
		}
	})
	st := c.Stats()
	if st.LocalHits != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverflowParksRemotelyAndComesBack(t *testing.T) {
	r := newRig(t, 3, 4<<20)
	c := r.newCache(t, 16<<10) // 16 KiB local: 4 values of 4 KiB
	r.run(t, func(ctx context.Context) {
		val := bytes.Repeat([]byte{0xAA}, 4096)
		for i := 0; i < 16; i++ {
			val[0] = byte(i)
			if err := c.Put(ctx, fmt.Sprintf("key-%d", i), val); err != nil {
				t.Errorf("Put %d: %v", i, err)
				return
			}
		}
		if c.LocalLen() != 4 {
			t.Errorf("LocalLen = %d, want 4", c.LocalLen())
		}
		// The oldest entries were parked remotely and are still readable.
		got, ok, err := c.Get(ctx, "key-0")
		if err != nil || !ok {
			t.Errorf("remote get = %v %v", ok, err)
			return
		}
		if got[0] != 0 || len(got) != 4096 {
			t.Error("remote value corrupted")
		}
	})
	st := c.Stats()
	if st.Evictions < 12 {
		t.Fatalf("Evictions = %d, want >= 12", st.Evictions)
	}
	if st.RemoteHits != 1 {
		t.Fatalf("RemoteHits = %d, want 1", st.RemoteHits)
	}
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", st.Dropped)
	}
	// Remote bytes live on the donors.
	var live int64
	for _, n := range r.nodes {
		live += n.RecvPool().Stats().LiveBytes
	}
	if live == 0 {
		t.Fatal("no bytes parked on donors")
	}
}

func TestMissOnUnknownKey(t *testing.T) {
	r := newRig(t, 1, 1<<20)
	c := r.newCache(t, 1<<20)
	r.run(t, func(ctx context.Context) {
		_, ok, err := c.Get(ctx, "ghost")
		if err != nil || ok {
			t.Errorf("Get ghost = %v, %v", ok, err)
		}
	})
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d", st.Misses)
	}
}

func TestDeleteBothTiers(t *testing.T) {
	r := newRig(t, 2, 4<<20)
	c := r.newCache(t, 4096)
	r.run(t, func(ctx context.Context) {
		big := make([]byte, 4096)
		if err := c.Put(ctx, "a", big); err != nil {
			t.Errorf("Put a: %v", err)
			return
		}
		if err := c.Put(ctx, "b", big); err != nil { // evicts "a" remotely
			t.Errorf("Put b: %v", err)
			return
		}
		if err := c.Delete(ctx, "a"); err != nil {
			t.Errorf("Delete a: %v", err)
			return
		}
		if err := c.Delete(ctx, "b"); err != nil {
			t.Errorf("Delete b: %v", err)
			return
		}
		for _, k := range []string{"a", "b"} {
			if _, ok, _ := c.Get(ctx, k); ok {
				t.Errorf("%s still present after delete", k)
			}
		}
	})
	for _, n := range r.nodes {
		if live := n.RecvPool().Stats().LiveBytes; live != 0 {
			t.Fatalf("node %d still holds %d bytes", n.ID(), live)
		}
	}
}

func TestPeerCrashBecomesMiss(t *testing.T) {
	r := newRig(t, 1, 4<<20)
	c := r.newCache(t, 4096)
	r.run(t, func(ctx context.Context) {
		big := make([]byte, 4096)
		if err := c.Put(ctx, "a", big); err != nil {
			t.Errorf("Put a: %v", err)
			return
		}
		if err := c.Put(ctx, "b", big); err != nil { // "a" parked on node 1
			t.Errorf("Put b: %v", err)
			return
		}
		r.fabric.Partition(100, 1)
		_, ok, err := c.Get(ctx, "a")
		if err != nil {
			t.Errorf("Get after crash errored: %v", err)
			return
		}
		if ok {
			t.Error("entry survived a partitioned peer without replication")
		}
	})
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
}

func TestAllPeersFullDropsEntries(t *testing.T) {
	r := newRig(t, 1, 1<<20) // single donor with a 1 MiB pool
	c := r.newCache(t, 8<<10)
	r.run(t, func(ctx context.Context) {
		// Incompressible values, so transparent compression cannot shrink
		// them into the donor and the pool genuinely fills.
		val := make([]byte, 8<<10)
		s := uint64(0x9E3779B97F4A7C15)
		for i := range val {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			val[i] = byte(s)
		}
		for i := 0; i < 300; i++ { // ~2.4 MiB of evictions into 1 MiB
			if err := c.Put(ctx, fmt.Sprintf("k%d", i), val); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	})
	if st := c.Stats(); st.Dropped == 0 {
		t.Fatalf("expected drops once the donor filled: %+v", st)
	}
}

func TestOverTCPFabric(t *testing.T) {
	// The same cache against a real TCP donor.
	donorEP, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer donorEP.Close()
	dir, err := cluster.NewDirectory(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewNode(core.Config{
		ID: 1, SharedPoolBytes: 1 << 20, SendPoolBytes: 1 << 20,
		RecvPoolBytes: 4 << 20, SlabSize: 1 << 20, ReplicationFactor: 1,
	}, donorEP, dir); err != nil {
		t.Fatal(err)
	}
	clientEP, err := tcpnet.Listen(100, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer clientEP.Close()
	clientEP.AddPeer(1, donorEP.Addr())

	c, err := New(Config{LocalBytes: 4096, Verbs: clientEP, Peers: []transport.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	big := bytes.Repeat([]byte{7}, 4096)
	if err := c.Put(ctx, "a", big); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "b", big); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(ctx, "a") // remote hit over TCP
	if err != nil || !ok || !bytes.Equal(got, big) {
		t.Fatalf("Get = %v %v", ok, err)
	}
	if st := c.Stats(); st.RemoteHits != 1 {
		t.Fatalf("RemoteHits = %d", st.RemoteHits)
	}
}

// TestBatchSpillAndPrefetch drives the §IV.H window path end to end: one
// oversized admission evicts a whole window of siblings in a single batched
// spill, and a later hit on any of them prefetches the rest of the window
// back in one span read.
func TestBatchSpillAndPrefetch(t *testing.T) {
	r := newRig(t, 1, 4<<20)
	c, err := New(Config{LocalBytes: 16 << 10, Verbs: r.clientEP, Peers: r.peers, WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4<<10) }
	r.run(t, func(ctx context.Context) {
		for i, k := range []string{"a", "b", "c", "d"} {
			if err := c.Put(ctx, k, val(byte(i+1))); err != nil {
				t.Errorf("Put %s: %v", k, err)
				return
			}
		}
		// A 16 KiB admission displaces all four entries at once: they spill
		// to the donor as one write-combined window.
		if err := c.Put(ctx, "big", make([]byte, 16<<10)); err != nil {
			t.Errorf("Put big: %v", err)
			return
		}
		if st := c.Stats(); st.Evictions != 4 || st.Dropped != 0 {
			t.Errorf("after spill: %+v", st)
		}
		// Make room, then touch one window member: its three siblings must
		// ride back with it.
		if err := c.Delete(ctx, "big"); err != nil {
			t.Errorf("Delete big: %v", err)
			return
		}
		got, ok, err := c.Get(ctx, "b")
		if err != nil || !ok || !bytes.Equal(got, val(2)) {
			t.Errorf("Get b = %d bytes, %v, %v", len(got), ok, err)
			return
		}
		st := c.Stats()
		if st.RemoteHits != 1 || st.Prefetched != 3 {
			t.Errorf("after prefetch: %+v", st)
		}
		if st.RemoteBytes != 0 {
			t.Errorf("RemoteBytes = %d, want 0 (window migrated home)", st.RemoteBytes)
		}
		// The siblings are local now: no further remote traffic.
		for i, k := range []string{"a", "c", "d"} {
			got, ok, err := c.Get(ctx, k)
			want := []byte{1, 3, 4}[i]
			if err != nil || !ok || !bytes.Equal(got, val(want)) {
				t.Errorf("Get %s = %d bytes, %v, %v", k, len(got), ok, err)
			}
		}
		if st := c.Stats(); st.LocalHits != 3 || st.RemoteHits != 1 {
			t.Errorf("after sibling gets: %+v", st)
		}
	})
	// Nothing left parked on the donor.
	if st := r.nodes[0].RecvPool().Stats(); st.LiveBytes != 0 {
		t.Fatalf("donor LiveBytes = %d, want 0", st.LiveBytes)
	}
}

// TestPrefetchSkippedWhenBudgetTight: a remote hit whose window no longer
// fits the local tier must fall back to fetching just the requested entry.
func TestPrefetchSkippedWhenBudgetTight(t *testing.T) {
	r := newRig(t, 1, 4<<20)
	c, err := New(Config{LocalBytes: 16 << 10, Verbs: r.clientEP, Peers: r.peers, WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4<<10) }
	r.run(t, func(ctx context.Context) {
		for i, k := range []string{"a", "b", "c", "d"} {
			if err := c.Put(ctx, k, val(byte(i+1))); err != nil {
				t.Errorf("Put %s: %v", k, err)
				return
			}
		}
		if err := c.Put(ctx, "big", make([]byte, 16<<10)); err != nil {
			t.Errorf("Put big: %v", err)
			return
		}
		// Local tier still holds "big": the window cannot come home whole.
		got, ok, err := c.Get(ctx, "b")
		if err != nil || !ok || !bytes.Equal(got, val(2)) {
			t.Errorf("Get b = %d bytes, %v, %v", len(got), ok, err)
			return
		}
		st := c.Stats()
		if st.RemoteHits != 1 || st.Prefetched != 0 {
			t.Errorf("tight-budget get: %+v", st)
		}
	})
}

// TestAdaptiveReadAheadBacksOff: when prefetched siblings cycle out of the
// local tier untouched, the read-ahead depth halves, so the next remote hit
// pulls fewer of them; referencing a prefetched entry counts as a hit.
func TestAdaptiveReadAheadBacksOff(t *testing.T) {
	r := newRig(t, 1, 4<<20)
	c, err := New(Config{LocalBytes: 16 << 10, Verbs: r.clientEP, Peers: r.peers, WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4<<10) }
	r.run(t, func(ctx context.Context) {
		for i, k := range []string{"a", "b", "c", "d"} {
			if err := c.Put(ctx, k, val(byte(i+1))); err != nil {
				t.Errorf("Put %s: %v", k, err)
				return
			}
		}
		if err := c.Put(ctx, "big", make([]byte, 16<<10)); err != nil {
			t.Errorf("Put big: %v", err)
			return
		}
		if err := c.Delete(ctx, "big"); err != nil {
			t.Errorf("Delete big: %v", err)
			return
		}
		// Full-window read-ahead: three siblings ride back with "b".
		if _, ok, err := c.Get(ctx, "b"); err != nil || !ok {
			t.Errorf("Get b: ok=%v err=%v", ok, err)
			return
		}
		if st := c.Stats(); st.Prefetched != 3 {
			t.Errorf("first hit prefetched %d, want 3", st.Prefetched)
			return
		}
		// Evict the whole set untouched: every prefetched sibling is wasted
		// work and the depth controller collapses to 1.
		if err := c.Put(ctx, "big", make([]byte, 16<<10)); err != nil {
			t.Errorf("Put big again: %v", err)
			return
		}
		st := c.Stats()
		if st.PrefetchWaste != 3 {
			t.Errorf("PrefetchWaste = %d, want 3", st.PrefetchWaste)
		}
		if d := c.depth.Get(); d != 1 {
			t.Errorf("depth after waste = %d, want 1", d)
		}
		// The next remote hit pulls at most one sibling.
		if err := c.Delete(ctx, "big"); err != nil {
			t.Errorf("Delete big: %v", err)
			return
		}
		if _, ok, err := c.Get(ctx, "b"); err != nil || !ok {
			t.Errorf("Get b again: ok=%v err=%v", ok, err)
			return
		}
		st = c.Stats()
		if got := st.Prefetched; got != 4 {
			t.Errorf("Prefetched after backed-off hit = %d, want 4 (3 then 1)", got)
		}
		// Touching the surviving prefetched sibling credits a hit.
		before := st.PrefetchHits
		for _, k := range []string{"a", "c", "d"} {
			_, _, _ = c.Get(ctx, k)
		}
		if st = c.Stats(); st.PrefetchHits <= before {
			t.Errorf("PrefetchHits did not advance: %+v", st)
		}
	})
}
