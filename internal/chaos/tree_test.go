// Tree-topology chaos scenarios: the control plane (tree-scoped heartbeats +
// epoch-versioned map deltas) under crashes, with groups small enough that
// most nodes are not the leader and learn of a death second-hand. The cluster
// size of the failover scenarios is tunable with -chaos.nodes; the headline
// scale test pins 24 nodes over real TCP sockets.
package chaos

import (
	"context"
	"flag"
	"testing"

	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/pagetable"
	"godm/internal/transport"
)

var chaosNodes = flag.Int("chaos.nodes", 6, "cluster size for the tree chaos scenarios")

// treeConfig shapes an n-node cluster with real tree depth: groups of up to
// 6, so leaders and the root do strictly less than O(n) work per round.
func treeConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = n
	cfg.GroupSize = 6
	if n < 6 {
		cfg.GroupSize = n
	}
	return cfg
}

// failoverBound is how many rounds after a crash every survivor must agree on
// the post-crash view: HeartbeatTimeout rounds of silence at the victim's
// watchers, one more at a watcher whose round ran before the victim's last
// beat arrived, and one for the verdict to ride the leaders' deltas to nodes
// whose round ran before their leader's. (Nodes run in ID order and leaders
// are their group's lowest ID, so a leader-to-member hop lands in the round
// the leader learned it.)
func failoverBound(cfg Config) int { return int(cfg.HeartbeatTimeout) + 2 }

// runTreeFailover converges a cluster, crashes the root, and verifies
// failover plus epoch convergence of both directories and a client map. It
// returns the election latency in rounds.
func runTreeFailover(t *testing.T, kind FabricKind, seed int64, nodes int) int {
	t.Helper()
	cfg := treeConfig(nodes)
	cl := New(t, kind, seed, cfg)
	defer cl.Close()
	cl.DumpOnFailure(t)
	latency := 0
	cl.Run(t, func(ctx context.Context) {
		// Setup convergence runs with the injector disabled per the serial-
		// driver contract — and it MUST come back on before the crash: a
		// disabled injector reports Crashed()==false, so the "dead" root
		// would keep heartbeating and no failover would ever happen.
		cl.Inj.SetEnabled(false)
		for i := 0; i < 3; i++ {
			cl.HeartbeatRound(ctx)
		}
		root, ok := cl.Dirs[0].RootLeader()
		if !ok {
			cl.Inj.SetEnabled(true)
			t.Error("no root before crash")
			return
		}
		// The client rides a survivor's endpoint: once the root crashes the
		// injector drops all its traffic, including client calls made
		// through its fabric attachment.
		clientID := transport.NodeID(nodes)
		if clientID == transport.NodeID(root) {
			clientID--
		}
		client := core.NewClient(cl.Eps[clientID-1])
		if err := client.SyncMap(ctx, clientID); err != nil {
			cl.Inj.SetEnabled(true)
			t.Errorf("SyncMap: %v", err)
			return
		}
		cl.RequireEpochConvergence(t, cl.Dirs, []*core.Client{client}, 0)
		RequireSingleLeader(t, cl.Dirs)
		cl.Inj.SetEnabled(true)
		if t.Failed() {
			return
		}

		cl.Inj.Crash(transport.NodeID(root))
		latency = cl.RequireFailoverWithin(ctx, t, transport.NodeID(root), failoverBound(cfg))

		var survivors []*cluster.Directory
		for i, d := range cl.Dirs {
			if cl.Nodes[i].ID() != transport.NodeID(root) {
				survivors = append(survivors, d)
			}
		}
		// The stale client follows the map deltas to the new view.
		if err := client.SyncMap(ctx, clientID); err != nil {
			t.Errorf("SyncMap after crash: %v", err)
			return
		}
		cl.RequireEpochConvergence(t, survivors, []*core.Client{client}, 0)
		if client.Map().Alive(cluster.NodeID(root)) {
			t.Errorf("client map still shows crashed root %d alive", root)
		}
	})
	return latency
}

// TestChaosTreeFailover runs the tree failover scenario at -chaos.nodes
// (default 6) on both fabrics and checks the election latency is within the
// detection-plus-propagation budget.
func TestChaosTreeFailover(t *testing.T) {
	for _, kind := range []FabricKind{FabricSim, FabricTCP} {
		t.Run(string(kind), func(t *testing.T) {
			seed := *chaosSeed
			logSeed(t, seed)
			latency := runTreeFailover(t, kind, seed, *chaosNodes)
			if t.Failed() {
				return
			}
			t.Logf("chaos: root failover converged in %d rounds (%d nodes, %s)", latency, *chaosNodes, kind)
		})
	}
}

// TestChaosScaleTCPTree is the 24-node headline: real sockets, groups of 6,
// root crash, failover, and client epoch convergence — the configuration the
// CI scale job runs under -race. Election latency and client epoch lag land
// in BENCH_cluster.json.
func TestChaosScaleTCPTree(t *testing.T) {
	nodes := *chaosNodes
	if nodes < 24 {
		nodes = 24
	}
	seed := *chaosSeed
	logSeed(t, seed)
	latency := runTreeFailover(t, FabricTCP, seed, nodes)
	if t.Failed() {
		return
	}
	t.Logf("chaos: scale failover converged in %d rounds (%d nodes, tcp)", latency, nodes)
}

// TestChaosCrashSeenWithinBound asserts the round's detection bound for every
// role a victim can hold, in one flat group and in two groups of six, on both
// fabrics: within failoverBound rounds of the crash every survivor has the
// victim down and all of them name the same root and the same leader for
// every group.
func TestChaosCrashSeenWithinBound(t *testing.T) {
	flat := DefaultConfig()
	grouped := DefaultConfig()
	grouped.Nodes, grouped.GroupSize = 12, 6
	for _, tt := range []struct {
		name   string
		cfg    Config
		victim func(dir *cluster.Directory) cluster.NodeID
	}{
		{"flat/member", flat, lastMember},
		{"flat/leader", flat, lastLeader},
		{"grouped/member", grouped, lastMember},
		{"grouped/leader", grouped, lastLeader},
		{"grouped/root", grouped, func(dir *cluster.Directory) cluster.NodeID {
			root, _ := dir.RootLeader()
			return root
		}},
	} {
		for _, kind := range []FabricKind{FabricSim, FabricTCP} {
			t.Run(tt.name+"/"+string(kind), func(t *testing.T) {
				cl := New(t, kind, *chaosSeed, tt.cfg)
				defer cl.Close()
				cl.DumpOnFailure(t)
				cl.Run(t, func(ctx context.Context) {
					for i := 0; i < 3; i++ {
						cl.HeartbeatRound(ctx)
					}
					cl.RequireEpochConvergence(t, cl.Dirs, nil, 0)
					if t.Failed() {
						return
					}
					victim := tt.victim(cl.Dirs[0])
					cl.Inj.Crash(transport.NodeID(victim))
					rounds := cl.RequireFailoverWithin(ctx, t, transport.NodeID(victim), failoverBound(tt.cfg))
					t.Logf("chaos: node %d's crash agreed on in %d rounds", victim, rounds)
				})
			})
		}
	}
}

// lastMember picks the highest-ID node that leads nothing.
func lastMember(dir *cluster.Directory) cluster.NodeID {
	nodes := dir.Snapshot()
	for i := len(nodes) - 1; i >= 0; i-- {
		if l, _ := dir.Leader(nodes[i].Group); l != nodes[i].ID {
			return nodes[i].ID
		}
	}
	return 0
}

// lastLeader picks the leader of the highest group: the root in a flat
// cluster, a plain group leader otherwise.
func lastLeader(dir *cluster.Directory) cluster.NodeID {
	l, _ := dir.Leader(dir.Groups() - 1)
	return l
}

// TestChaosMemberOwnerRepairsCrashedDonor is the regression for verdicts a
// node only ever hears second-hand: the entry's owner is a plain member that
// watches nothing but its leader, a donor outside that watch set crashes, and
// the owner — doing what dmnode's tick does with the round's events — must
// still restore the replication factor within failoverBound rounds.
func TestChaosMemberOwnerRepairsCrashedDonor(t *testing.T) {
	for _, kind := range []FabricKind{FabricSim, FabricTCP} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.GroupSize = 5 // groups {1..5} and {6}: rf3 plus a spare donor for the repair
			cl := New(t, kind, *chaosSeed, cfg)
			defer cl.Close()
			cl.DumpOnFailure(t)
			filler, err := cl.Nodes[0].AddServer("filler", 0)
			if err != nil {
				t.Fatal(err)
			}
			const owner = 2
			vs, err := cl.Nodes[owner-1].AddServer("chaos", 0)
			if err != nil {
				t.Fatal(err)
			}
			cl.Run(t, func(ctx context.Context) {
				for i := 0; i < 2; i++ {
					cl.HeartbeatRound(ctx)
				}
				// Node 1 parks enough on the rest of its group that it keeps the
				// most free memory, and with it the lead, once the owner writes.
				for i := 0; i < 8; i++ {
					if err := filler.PutRemote(ctx, pagetable.EntryID(i), cl.Payload(100+i, 4096), 4096, 4096); err != nil {
						t.Errorf("filler put %d: %v", i, err)
						return
					}
				}
				payload := cl.Payload(0, 4096)
				if err := vs.PutRemote(ctx, 0, payload, 4096, 4096); err != nil {
					t.Errorf("owner put: %v", err)
					return
				}
				for i := 0; i < 2; i++ {
					cl.HeartbeatRound(ctx)
				}
				targets := cl.Dirs[owner-1].TreeTargets(owner)
				if len(targets) != 1 || targets[0] == owner {
					t.Errorf("owner %d exchanges with %v, want only its leader; bad scenario setup", owner, targets)
					return
				}
				loc, err := vs.Location(0)
				if err != nil {
					t.Error(err)
					return
				}
				victim := transport.NodeID(loc.Primary)
				if cluster.NodeID(victim) == targets[0] {
					victim = transport.NodeID(loc.Replicas[0])
				}
				cl.Inj.Crash(victim)
				for i := 0; i < failoverBound(cfg); i++ {
					for _, ev := range cl.HeartbeatRound(ctx)[owner-1] {
						if ev.Kind == cluster.EventNodeDown {
							cl.Nodes[owner-1].RepairLost(transport.NodeID(ev.Node))
						}
					}
					if _, err := cl.Nodes[owner-1].Maintain(ctx); err != nil {
						t.Errorf("maintain: %v", err)
						return
					}
				}
				RequireReplicationFactor(t, vs, 0, 3, victim)
				RequireWriteAtomicity(ctx, t, cl.Inj, vs, 0, payload, nil)
			})
		})
	}
}
