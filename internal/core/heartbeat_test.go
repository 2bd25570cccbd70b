package core

import (
	"context"
	"net"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/simnet"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

// seededDir returns a private directory bootstrapped the way dmnode does it:
// the whole roster joined in ID order with no free-byte figure yet.
func seededDir(t *testing.T, n int) *cluster.Directory {
	t.Helper()
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: n, HeartbeatTimeout: 3})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= n; j++ {
		dir.Join(cluster.NodeID(j), 0)
	}
	return dir
}

// TestHeartbeatRoundSpreadsFreeBytes: with one directory per node and the
// heartbeat round as the only link between them, every directory learns every
// node's real free receive-pool bytes — the leader first-hand from its
// members' beats, the members from the leader's map deltas one round later —
// so each node's placement candidates advertise memory.
func TestHeartbeatRoundSpreadsFreeBytes(t *testing.T) {
	const n = 4
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	var nodes []*Node
	for i := 1; i <= n; i++ {
		ep, err := fabric.Attach(transport.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(smallConfig(transport.NodeID(i)), ep, seededDir(t, n))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	env.Go("sim", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		for round := 0; round < 2; round++ {
			for _, node := range nodes {
				node.HeartbeatRound(ctx)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		for _, st := range node.dir.Snapshot() {
			if want := nodes[st.ID-1].recv.FreeBytes(); st.FreeBytes != want {
				t.Errorf("node %d's directory has node %d at %d free bytes, want %d", node.cfg.ID, st.ID, st.FreeBytes, want)
			}
		}
		cands, err := node.candidates()
		if err != nil || len(cands) != n-1 {
			t.Fatalf("node %d candidates = %v, %v; want %d (self excluded)", node.cfg.ID, cands, err, n-1)
		}
		for _, c := range cands {
			if c.FreeBytes <= 0 {
				t.Errorf("node %d: candidate %d advertises no memory", node.cfg.ID, c.Node)
			}
		}
	}
}

// TestHeartbeatRoundDeadTargetTCP: over real sockets the exchanges of one
// round fan out concurrently, so a target that takes the connection and
// then never answers costs the round its context timeout once and starves no
// other target. Node 1 leads a flat group of six; peer 2 — first in target
// order, where a serial loop would burn the whole deadline before reaching
// anyone else — is a silent listener. Every live peer must still hear this
// round's beat (its directory learns node 1's free bytes), and the round must
// return within two timeouts.
func TestHeartbeatRoundDeadTargetTCP(t *testing.T) {
	const n = 6
	const timeout = 400 * time.Millisecond
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close() // never accepts: a dial lands in the backlog and no call is ever answered

	var eps []*tcpnet.Endpoint
	for i := 1; i <= n; i++ {
		if i == 2 {
			eps = append(eps, nil)
			continue
		}
		ep, err := tcpnet.Listen(transport.NodeID(i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		eps = append(eps, ep)
	}
	nodes := make([]*Node, n)
	for i, ep := range eps {
		if ep == nil {
			continue
		}
		for j, peer := range eps {
			switch {
			case j == i:
			case peer == nil:
				ep.AddPeer(transport.NodeID(j+1), silent.Addr().String())
			default:
				ep.AddPeer(transport.NodeID(j+1), peer.Addr())
			}
		}
		node, err := NewNode(smallConfig(ep.ID()), ep, seededDir(t, n))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	hub := nodes[0]
	if got := hub.dir.TreeTargets(1); len(got) != n-1 || got[0] != 2 {
		t.Fatalf("node 1 targets = %v, want all five peers with the silent one first", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	hub.HeartbeatRound(ctx)
	if took := time.Since(start); took >= 2*timeout {
		t.Errorf("round took %v with one dead target, want < %v", took, 2*timeout)
	}
	want := hub.recv.FreeBytes()
	for _, node := range nodes[2:] {
		for _, st := range node.dir.Snapshot() {
			if st.ID == 1 && st.FreeBytes != want {
				t.Errorf("node %d never heard node 1's beat: free bytes %d, want %d", node.cfg.ID, st.FreeBytes, want)
			}
		}
	}
}
