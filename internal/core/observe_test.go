package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/metrics"
	"godm/internal/simnet"
	"godm/internal/transport"
)

func TestHeartbeatDigestWireBackCompat(t *testing.T) {
	// A digest-free heartbeat decodes from both the legacy 9-byte frame and
	// the new frame with an empty digest set.
	legacy := make([]byte, 9)
	legacy[0] = opHeartbeat
	legacy[8] = 42
	r, err := decodeHeartbeatReq(legacy)
	if err != nil || r.FreeBytes != 42 || r.Digests != nil {
		t.Fatalf("legacy decode = %+v, %v", r, err)
	}
	reg := metrics.NewRegistry("core/node-3")
	reg.Counter("remote_allocs").Add(7)
	nd := metrics.NodeDigest{Node: 3, Seq: 9, D: metrics.DigestRegistries(map[string]*metrics.Registry{"core": reg})}
	b := encodeHeartbeatReq(heartbeatReq{FreeBytes: 5, Digests: []metrics.NodeDigest{nd}})
	got, err := decodeHeartbeatReq(b)
	if err != nil || got.FreeBytes != 5 || len(got.Digests) != 1 {
		t.Fatalf("decode = %+v, %v", got, err)
	}
	if got.Digests[0].Node != 3 || got.Digests[0].Seq != 9 ||
		got.Digests[0].D.Counters["core/remote_allocs"] != 7 {
		t.Fatalf("digest lost in transit: %+v", got.Digests[0])
	}
	// A legacy decoder reading only the fixed header still sees the frame.
	if b[0] != opHeartbeat || len(b) < 9 {
		t.Fatalf("frame header changed: % x", b[:9])
	}
}

func TestClusterRespRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry("core/node-1")
	reg.Counter("remote_puts").Add(2)
	set := []metrics.NodeDigest{
		{Node: 1, Seq: 4, D: metrics.DigestRegistries(map[string]*metrics.Registry{"core": reg})},
	}
	got, err := decodeBody(encodeClusterResp(set), metrics.DecodeDigestSet)
	if err != nil || len(got) != 1 || got[0].D.Counters["core/remote_puts"] != 2 {
		t.Fatalf("cluster resp round trip = %+v, %v", got, err)
	}
	if _, err := decodeBody(errorResp(ErrNoSpace), metrics.DecodeDigestSet); err == nil {
		t.Fatal("error response decoded as success")
	}
}

// TestHeartbeatRoundDigestAggregation runs per-node directories connected only
// by the heartbeat tree and asserts the observability plane converges: after
// two rounds (member→leader, leader→root) the root's store covers every
// node, and its aggregated op counters exactly equal the sum over members.
func TestHeartbeatRoundDigestAggregation(t *testing.T) {
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
	for _, node := range nodes {
		for j := 1; j <= n; j++ {
			node.dir.Join(cluster.NodeID(j), 1<<20)
		}
	}
	client := NewClient(nodes[0].ep)
	env.Go("sim", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		// Spread traffic so every node past the first hosts blocks.
		data := bytes.Repeat([]byte{0xAB}, 1024)
		for i := 2; i <= n; i++ {
			for k := 0; k < i; k++ {
				if err := client.Put(ctx, transport.NodeID(i), uint64(100*i+k), data); err != nil {
					t.Errorf("Put to node %d: %v", i, err)
					return
				}
			}
		}
		// Two full tree rounds propagate member digests to the root (plus one
		// slack round for leader stores folding before their root beat).
		for round := 0; round < 3; round++ {
			for _, node := range nodes {
				node.HeartbeatRound(ctx)
			}
		}
		root, ok := nodes[0].dir.RootLeader()
		if !ok {
			t.Error("no root leader")
			return
		}
		rootNode := nodes[int(root)-1]
		view := rootNode.ClusterView()
		if len(view) != n {
			t.Errorf("root view has %d contributors, want %d", len(view), n)
			return
		}
		agg, err := metrics.Aggregate(view)
		if err != nil {
			t.Errorf("aggregate: %v", err)
			return
		}
		var wantAllocs int64
		for _, node := range nodes {
			wantAllocs += node.reg.Counter("remote_allocs").Value()
		}
		if got := agg.Counters["core/remote_allocs"]; got != wantAllocs {
			t.Errorf("aggregated remote_allocs = %d, want %d (sum over members)", got, wantAllocs)
		}
		// Staleness: every relayed digest is at most a couple of rounds old.
		for _, nd := range view {
			if nd.Age > 3 {
				t.Errorf("node %d digest age %d, want <= 3", nd.Node, nd.Age)
			}
		}
		// Piggyback sets stay O(group): a member sends 1 digest, a group
		// leader at most 1+groupSize to the root.
		self := cluster.NodeID(nodes[0].cfg.ID)
		selfDigest := nodes[0].refreshDigest()
		for _, target := range nodes[0].dir.TreeTargets(self) {
			if got := len(nodes[0].digestsFor(target, selfDigest)); got > 4 {
				t.Errorf("digest set to %d has %d entries, want <= 1+groupSize", target, got)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSLOWiring drives a remote put/get through a vserver and checks the SLO
// instruments attribute the ops, so the digest plane has op-family figures.
func TestSLOWiring(t *testing.T) {
	tc := newTestCluster(t, 3, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.ReplicationFactor = 2
		// Zero-RTT objectives under simnet latency: every op blows its SLO,
		// proving the bad counters and slow-span marking fire.
		cfg.Objectives = metrics.Objectives{"get": time.Nanosecond, "put": time.Nanosecond}
		return cfg
	})
	vs, err := tc.nodes[0].AddServer("vm0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x7F}, 2048)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := vs.PutRemote(ctx, 5, data, 2048, len(data)); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		if _, _, err := vs.Get(ctx, 5); err != nil {
			t.Errorf("Get: %v", err)
			return
		}
	})
	reg := tc.nodes[0].Metrics()
	if bad := reg.Counter("op_put_bad").Value(); bad != 1 {
		t.Errorf("op_put_bad = %d, want 1", bad)
	}
	if bad := reg.Counter("op_get_bad").Value(); bad != 1 {
		t.Errorf("op_get_bad = %d, want 1", bad)
	}
	if c := reg.Histogram("op_put_latency").Count(); c != 1 {
		t.Errorf("op_put_latency count = %d, want 1", c)
	}
	// The default-objective path counts fast ops as good.
	tc2 := newTestCluster(t, 3, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.ReplicationFactor = 2
		return cfg
	})
	vs2, err := tc2.nodes[0].AddServer("vm0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	tc2.run(t, func(ctx context.Context, p *des.Proc) {
		if err := vs2.PutRemote(ctx, 6, data, 2048, len(data)); err != nil {
			t.Errorf("PutRemote: %v", err)
		}
	})
	reg2 := tc2.nodes[0].Metrics()
	if good := reg2.Counter("op_put_good").Value(); good != 1 {
		t.Errorf("op_put_good = %d, want 1 (default objective covers simnet RTT)", good)
	}
}

// An attached registry (a co-located swap engine's, here) rides the node's
// digest to the tree root, so `dmctl top` at the root renders its tier
// balance next to the core instruments.
func TestAttachedRegistryReachesRootDigest(t *testing.T) {
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	nodes := make([]*Node, 0, 3)
	for i := 1; i <= 3; i++ {
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
	for _, node := range nodes {
		for j := 1; j <= 3; j++ {
			node.dir.Join(cluster.NodeID(j), 1<<20)
		}
	}
	swapReg := metrics.NewRegistry("swap/node-2")
	swapReg.Gauge("tier_shared_pages").Set(12)
	swapReg.Gauge("tier_disk_pages").Set(3)
	swapReg.Counter("tier_demotions").Add(4)
	nodes[1].AttachDigestRegistry("swap", swapReg)

	env.Go("sim", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		for round := 0; round < 3; round++ {
			for _, node := range nodes {
				node.HeartbeatRound(ctx)
			}
		}
		root, ok := nodes[0].dir.RootLeader()
		if !ok {
			t.Error("no root leader")
			return
		}
		view := nodes[root-1].ClusterView()
		var found bool
		for _, nd := range view {
			if nd.Node != 2 {
				continue
			}
			found = true
			if nd.D.Gauges["swap/tier_shared_pages"] != 12 {
				t.Errorf("tier gauge lost: %+v", nd.D.Gauges)
			}
			if nd.D.Counters["swap/tier_demotions"] != 4 {
				t.Errorf("tier counter lost: %+v", nd.D.Counters)
			}
		}
		if !found {
			t.Error("node 2's digest never reached the root")
		}
		var sb bytes.Buffer
		if err := metrics.RenderClusterView(&sb, view); err != nil {
			t.Errorf("render: %v", err)
			return
		}
		out := sb.String()
		if !bytes.Contains([]byte(out), []byte("tier balance (pages):")) {
			t.Errorf("rendered view missing tier section:\n%s", out)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
