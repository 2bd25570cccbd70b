package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/faulty"
	"godm/internal/pagetable"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

func TestParsePeers(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    map[transport.NodeID]string
		wantErr bool
	}{
		{name: "empty", in: "", want: map[transport.NodeID]string{}},
		{name: "single", in: "2=localhost:7402",
			want: map[transport.NodeID]string{2: "localhost:7402"}},
		{name: "multiple", in: "2=h2:7402,3=h3:7403",
			want: map[transport.NodeID]string{2: "h2:7402", 3: "h3:7403"}},
		{name: "missing equals", in: "2localhost", wantErr: true},
		{name: "bad id", in: "x=localhost:1", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parsePeers(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for id, addr := range tt.want {
				if got[id] != addr {
					t.Fatalf("got[%d] = %q, want %q", id, got[id], addr)
				}
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-peers", "garbage"}); err == nil {
		t.Fatal("expected error for malformed peers")
	}
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("expected error for unknown flag")
	}
	// The mesh/tree switch and the pool lock-shard count are gone; the flag
	// package refuses them by name.
	for _, gone := range [][]string{{"-heartbeat", "tree"}, {"-pool-shards", "8"}} {
		err := run(gone)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("expected unknown-flag error for %s, got %v", gone[0], err)
		}
	}
	if err := run([]string{"-durability", "raid5"}); err == nil {
		t.Fatal("expected error for unknown durability policy")
	}
	// rs4.2 stripes across 6 distinct donors; one peer cannot host it.
	err := run([]string{"-durability", "rs4.2", "-peers", "2=localhost:7402"})
	if err == nil || !strings.Contains(err.Error(), "needs 6 peers") {
		t.Fatalf("expected peer-count refusal for rs4.2 with 1 peer, got %v", err)
	}
}

// TestTickOnceSurvivesOutage drives the daemon's tick: heartbeats and map
// deltas flow to the node's tree targets, the watch-scoped detector advances,
// and a fabric that drops everything is a logged retry, not a fatal error.
func TestTickOnceSurvivesOutage(t *testing.T) {
	tc := newTickCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tc.inj.SetEnabled(false)
	logf := func(string, ...any) {}
	before := tc.dir.Epoch()
	for i := 0; i < 3; i++ {
		if err := tickOnce(ctx, tc.node, logf); err != nil {
			t.Fatalf("tickOnce %d: %v", i, err)
		}
	}
	if !tc.dir.Alive(cluster.NodeID(tc.node.ID())) {
		t.Fatal("node not alive in its own directory after three ticks")
	}
	if tc.dir.Epoch() < before {
		t.Fatalf("directory epoch went backwards: %d -> %d", before, tc.dir.Epoch())
	}
	tc.inj.SetEnabled(true)
	tc.inj.AddRules([]faulty.Rule{{
		Kind: faulty.KindDrop, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100,
	}})
	if err := tickOnce(ctx, tc.node, logf); err != nil {
		t.Fatalf("tickOnce during outage: %v, want nil", err)
	}
}

// TestTickOnceRepairsCrashedDonor: a donor dies and nobody calls RepairLost by
// hand. Ticking the survivors must bring the entry back to full factor within
// HeartbeatTimeout+2 ticks — whether the owner leads the group and sees the
// silence first-hand, or is a plain member that watches only its leader and
// learns of the death from the leader's map deltas.
func TestTickOnceRepairsCrashedDonor(t *testing.T) {
	for _, tt := range []struct {
		name  string
		owner int
	}{
		{name: "owner leads", owner: 1},
		{name: "owner is a member", owner: 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := newTickCluster(t)
			tc.inj.SetEnabled(false)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			logf := func(string, ...any) {}
			tick := func(skip transport.NodeID) {
				t.Helper()
				for _, n := range tc.nodes {
					if n.ID() == skip {
						continue
					}
					if err := tickOnce(ctx, n, logf); err != nil {
						t.Fatalf("tickOnce node %d: %v", n.ID(), err)
					}
				}
			}
			for i := 0; i < 2; i++ {
				tick(0)
			}
			owner := tc.nodes[tt.owner-1]
			vs, err := owner.Server("tick-test")
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("crashed-donor-regression-payload")
			if err := vs.PutRemote(ctx, 1, payload, 4096, 4096); err != nil {
				t.Fatalf("PutRemote: %v", err)
			}
			tick(0)
			loc, err := vs.Location(1)
			if err != nil {
				t.Fatal(err)
			}
			// Never the leader: its loss is a failover, a different scenario.
			victim := transport.NodeID(loc.Primary)
			if victim == 1 {
				victim = transport.NodeID(loc.Replicas[0])
			}
			if tt.owner != 1 {
				if got := tc.dirs[tt.owner-1].TreeTargets(cluster.NodeID(tt.owner)); len(got) != 1 || got[0] != 1 {
					t.Fatalf("owner %d watches %v, want only its leader 1", tt.owner, got)
				}
			}
			_ = tc.eps[victim-1].Close()

			for i := 0; i < tickHeartbeatTimeout+2; i++ {
				tick(victim)
			}
			loc, err = vs.Location(1)
			if err != nil {
				t.Fatal(err)
			}
			holders := append([]pagetable.NodeID{loc.Primary}, loc.Replicas...)
			if len(holders) != 2 || holders[0] == holders[1] {
				t.Fatalf("replica set %v after the crash, want 2 distinct holders", holders)
			}
			for _, h := range holders {
				if transport.NodeID(h) == victim {
					t.Fatalf("crashed node %d still in replica set %v: nothing repaired it", victim, holders)
				}
				got, err := vs.ReadFrom(ctx, 1, transport.NodeID(h))
				if err != nil || string(got[:len(payload)]) != string(payload) {
					t.Fatalf("holder %d serves %q, %v", h, got, err)
				}
			}
		})
	}
}

// tickCluster is a four-node in-process cluster, one directory per node as
// with real daemons, whose first node speaks through a fault injector — the
// regression fixture for the daemon's tick loop. Node 1 donates the largest
// pool, so it leads the flat group whatever the tests park.
type tickCluster struct {
	inj  *faulty.Injector
	node *core.Node // node 1, faulty endpoint
	dir  *cluster.Directory
	vs   *core.VirtualServer

	// Indexed by node ID - 1. Every node has a "tick-test" virtual server.
	eps   []*tcpnet.Endpoint
	nodes []*core.Node
	dirs  []*cluster.Directory
}

const tickHeartbeatTimeout = 3

func newTickCluster(t *testing.T) *tickCluster {
	t.Helper()
	const n = 4
	inj := faulty.New(1)
	addrs := map[transport.NodeID]string{}
	var eps []*tcpnet.Endpoint
	for i := 1; i <= n; i++ {
		ep, err := tcpnet.Listen(transport.NodeID(i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
		addrs[ep.ID()] = ep.Addr()
		t.Cleanup(func() { _ = ep.Close() })
	}
	tc := &tickCluster{inj: inj, eps: eps}
	for i, ep := range eps {
		for id, addr := range addrs {
			if id != ep.ID() {
				ep.AddPeer(id, addr)
			}
		}
		dir, err := cluster.NewDirectory(cluster.Config{GroupSize: n, HeartbeatTimeout: tickHeartbeatTimeout})
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= n; j++ {
			if j != i+1 {
				dir.Join(cluster.NodeID(j), 1<<20)
			}
		}
		fabric := transport.Endpoint(ep)
		recv := int64(1 << 20)
		if i == 0 {
			fabric = inj.Wrap(ep)
			recv = 2 << 20
		}
		node, err := core.NewNode(core.Config{
			ID:                ep.ID(),
			SharedPoolBytes:   8192,
			SendPoolBytes:     8192,
			RecvPoolBytes:     recv,
			SlabSize:          4096,
			ReplicationFactor: 2,
		}, fabric, dir)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := node.AddServer("tick-test", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			tc.node, tc.dir, tc.vs = node, dir, vs
		}
		tc.nodes = append(tc.nodes, node)
		tc.dirs = append(tc.dirs, dir)
	}
	return tc
}

// TestTickOnceRetriesUnreachablePeer reproduces the mid-tick peer loss: a
// replica holder becomes unreachable while a repair is pending, so Maintain
// fails with transport.ErrUnreachable. The tick must log and carry on — not
// kill the daemon — and the next tick, with the peer back, must complete the
// repair it kept queued.
func TestTickOnceRetriesUnreachablePeer(t *testing.T) {
	tc := newTickCluster(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	payload := []byte("tick-loop-regression-payload")
	if err := tc.vs.PutRemote(ctx, 1, payload, 4096, 4096); err != nil {
		t.Fatalf("PutRemote: %v", err)
	}
	loc, err := tc.vs.Location(1)
	if err != nil {
		t.Fatal(err)
	}
	lost := transport.NodeID(loc.Replicas[0])
	if queued := tc.node.RepairLost(lost); queued != 1 {
		t.Fatalf("RepairLost queued %d repairs, want 1", queued)
	}

	// Every fabric operation from node 1 now fails as unreachable.
	tc.inj.AddRules([]faulty.Rule{{
		Kind: faulty.KindDrop, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100,
	}})
	var lines []string
	logf := func(format string, v ...any) { lines = append(lines, fmt.Sprintf(format, v...)) }
	if err := tickOnce(ctx, tc.node, logf); err != nil {
		t.Fatalf("tickOnce during outage: %v, want nil (logged retry)", err)
	}
	retried := false
	for _, l := range lines {
		if strings.Contains(l, "retrying next tick") {
			retried = true
		}
	}
	if !retried {
		t.Fatalf("no retry log line during outage; got %q", lines)
	}

	// Fabric heals; the queued repair completes and the lost holder is
	// replaced.
	tc.inj.SetEnabled(false)
	lines = nil
	if err := tickOnce(ctx, tc.node, logf); err != nil {
		t.Fatalf("tickOnce after heal: %v", err)
	}
	repaired := false
	for _, l := range lines {
		if strings.Contains(l, "re-replicated 1 entries") {
			repaired = true
		}
	}
	if !repaired {
		t.Fatalf("repair did not complete after heal; got %q", lines)
	}
	loc, err = tc.vs.Location(1)
	if err != nil {
		t.Fatal(err)
	}
	holders := []transport.NodeID{transport.NodeID(loc.Primary)}
	for _, r := range loc.Replicas {
		holders = append(holders, transport.NodeID(r))
	}
	for _, h := range holders {
		if h == lost {
			t.Fatalf("lost node %d still in replica set after repair", lost)
		}
	}
	got, _, err := tc.vs.Get(ctx, 1)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("entry unreadable after repair: %q, %v", got, err)
	}
}
