package chaos

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"godm/internal/cluster"
	"godm/internal/pagetable"
	"godm/internal/transport"
)

// stripeConfig is an eight-node cluster under RS(4,2): six donors per
// stripe, one spare for repair, plus the owner.
func stripeConfig() Config {
	return Config{Nodes: 8, ReplicationFactor: 3, HeartbeatTimeout: 3, Durability: "rs4.2"}
}

// runStripeScenario is the seeded donor-crash / degraded-read scenario:
// stripe several entries across the cluster, crash the donor holding entry
// 0's first data shard, read every entry back while the donor is dark (reads
// must reconstruct from parity without a single wrong byte), then let the
// failure detector and maintenance loop rebuild the lost shards on the spare
// and verify full stripe durability. Outcome labels are a function of the
// seed only; the injector trace additionally of the fabric's op interleaving
// (serial under sim, so the sim trace also replays byte for byte).
func runStripeScenario(t *testing.T, kind FabricKind, seed int64) (outcomes, trace []string) {
	t.Helper()
	cl := New(t, kind, seed, stripeConfig())
	defer cl.Close()
	cl.DumpOnFailure(t)
	vs, err := cl.Nodes[0].AddServer("chaos", 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := cl.Nodes[0].ID()
	const entries = 4
	cl.Run(t, func(ctx context.Context) {
		// Membership setup is concurrent under TCP: fault-free and uncounted.
		cl.Inj.SetEnabled(false)
		cl.HeartbeatRound(ctx)
		cl.Inj.SetEnabled(true)

		for i := 0; i < entries; i++ {
			id := pagetable.EntryID(i)
			werr := vs.PutRemote(ctx, id, cl.Payload(i, 4096), 4096, 4096)
			outcomes = append(outcomes, fmt.Sprintf("put %d: %s", i, Classify(werr)))
			if werr != nil {
				continue
			}
			RequireStripeDurable(t, cl.Nodes, vs, owner, id, 4, 2)
		}

		// Crash the donor of entry 0's first data shard (seed-deterministic
		// through the balancer).
		loc, err := vs.Location(0)
		if err != nil {
			t.Errorf("location of entry 0: %v", err)
			return
		}
		victim := transport.NodeID(loc.Primary)
		cl.Inj.Crash(victim)
		outcomes = append(outcomes, fmt.Sprintf("crash donor %d", victim))

		// Degraded reads: every striped entry must still read back
		// byte-identical, reconstructing where the victim held a shard.
		for i := 0; i < entries; i++ {
			id := pagetable.EntryID(i)
			got, _, gerr := vs.Get(ctx, id)
			label := Classify(gerr)
			if gerr == nil && !bytes.Equal(got, cl.Payload(i, 4096)) {
				label = "corrupt"
			}
			outcomes = append(outcomes, fmt.Sprintf("degraded get %d: %s", i, label))
			RequireStripeDurable(t, cl.Nodes, vs, owner, id, 4, 2, victim)
		}

		// Failure detection, then repair-by-reconstruction onto the spare.
		detected := false
		for r := 0; r < 8 && !detected; r++ {
			for _, ev := range cl.HeartbeatRound(ctx)[0] {
				if ev.Kind == cluster.EventNodeDown && ev.Node == cluster.NodeID(victim) {
					detected = true
				}
			}
		}
		if !detected {
			t.Errorf("owner never detected victim %d going down", victim)
			return
		}
		queued := cl.Nodes[0].RepairLost(victim)
		repaired, merr := cl.Nodes[0].Maintain(ctx)
		outcomes = append(outcomes, fmt.Sprintf("repair: queued %d repaired %d err %s", queued, repaired, Classify(merr)))
		if queued == 0 {
			t.Error("victim held no shard; bad scenario setup")
		}
		if merr != nil || repaired != queued {
			t.Errorf("maintain repaired %d of %d queued: %v", repaired, queued, merr)
		}

		// Post-repair: full k+m durability with the victim out of every set.
		for i := 0; i < entries; i++ {
			id := pagetable.EntryID(i)
			loc, err := vs.Location(id)
			if err != nil {
				t.Errorf("entry %d lost its location after repair: %v", i, err)
				continue
			}
			for _, h := range append([]pagetable.NodeID{loc.Primary}, loc.Replicas...) {
				if transport.NodeID(h) == victim {
					t.Errorf("entry %d: crashed donor %d still in stripe set after repair", i, victim)
				}
			}
			RequireStripeDurable(t, cl.Nodes, vs, owner, id, 4, 2)
			got, _, gerr := vs.Get(ctx, id)
			label := Classify(gerr)
			if gerr == nil && !bytes.Equal(got, cl.Payload(i, 4096)) {
				label = "corrupt"
			}
			outcomes = append(outcomes, fmt.Sprintf("healed get %d: %s", i, label))
		}
	})
	return outcomes, cl.Inj.Trace()
}

// TestChaosStripeSurvivesDonorDrain: gracefully draining a shard donor must
// move each shard to its successor as a shard. The migration reserve carries
// the stripe coordinates, so the successor answers ShardInfo at the position
// the stripe map records and refuses a later sibling; a plain reserve would
// leave the stripe's durability unverifiable after the first drain.
func TestChaosStripeSurvivesDonorDrain(t *testing.T) {
	seed := *chaosSeed
	logSeed(t, seed)
	cl := New(t, FabricSim, seed, stripeConfig())
	defer cl.Close()
	cl.DumpOnFailure(t)
	vs, err := cl.Nodes[0].AddServer("chaos", 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := cl.Nodes[0].ID()
	const entries = 4
	cl.Run(t, func(ctx context.Context) {
		// Two rounds, not one: the drained donor picks the successor from its
		// own directory, and a member learns its peers' free bytes by pulling
		// the leader's deltas the round after they beat the leader.
		for i := 0; i < 2; i++ {
			cl.HeartbeatRound(ctx)
		}
		for i := 0; i < entries; i++ {
			if err := vs.PutRemote(ctx, pagetable.EntryID(i), cl.Payload(i, 4096), 4096, 4096); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		loc, err := vs.Location(0)
		if err != nil {
			t.Errorf("location of entry 0: %v", err)
			return
		}
		drained := transport.NodeID(loc.Primary)
		moved, err := cl.Nodes[drained-1].Decommission(ctx)
		if err != nil || moved == 0 {
			t.Errorf("decommission donor %d moved %d shards: %v", drained, moved, err)
			return
		}
		for i := 0; i < entries; i++ {
			id := pagetable.EntryID(i)
			loc, err := vs.Location(id)
			if err != nil {
				t.Errorf("entry %d lost its location after the drain: %v", i, err)
				continue
			}
			for _, h := range append([]pagetable.NodeID{loc.Primary}, loc.Replicas...) {
				if transport.NodeID(h) == drained {
					t.Errorf("entry %d: drained donor %d still in the stripe set", i, drained)
				}
			}
			RequireStripeDurable(t, cl.Nodes, vs, owner, id, 4, 2)
			if got, _, err := vs.Get(ctx, id); err != nil || !bytes.Equal(got, cl.Payload(i, 4096)) {
				t.Errorf("get %d after the drain: %d bytes, %v", i, len(got), err)
			}
		}
	})
}

// TestChaosStripeDegradedReadSim: the scenario under the simulated fabric
// replays byte-for-byte — outcome labels and fault trace both — because the
// striped read plan is serial under the discrete-event simulation.
func TestChaosStripeDegradedReadSim(t *testing.T) {
	seed := *chaosSeed
	logSeed(t, seed)
	out1, tr1 := runStripeScenario(t, FabricSim, seed)
	if len(tr1) == 0 {
		t.Fatal("crash injected no faults; the degraded path was never exercised")
	}
	mustContainDegraded(t, out1)
	out2, tr2 := runStripeScenario(t, FabricSim, seed)
	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("outcome replay differs:\n run1: %v\n run2: %v", out1, out2)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Errorf("fault trace replay differs:\n run1: %v\n run2: %v", tr1, tr2)
	}
}

// TestChaosStripeDegradedReadTCP: the same scenario over real sockets. The
// outcome sequence replays exactly; the injector trace is not compared
// because the concurrent scatter read cancels straggler fetches, so the
// per-stream op counts legitimately vary with socket timing.
func TestChaosStripeDegradedReadTCP(t *testing.T) {
	seed := *chaosSeed
	logSeed(t, seed)
	out1, tr1 := runStripeScenario(t, FabricTCP, seed)
	if len(tr1) == 0 {
		t.Fatal("crash injected no faults; the degraded path was never exercised")
	}
	mustContainDegraded(t, out1)
	out2, _ := runStripeScenario(t, FabricTCP, seed)
	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("outcome replay differs:\n run1: %v\n run2: %v", out1, out2)
	}
}

// mustContainDegraded requires every read (degraded and healed) to have
// completed with the right bytes — the scenario is vacuous otherwise.
func mustContainDegraded(t *testing.T, outcomes []string) {
	t.Helper()
	degraded, healed := 0, 0
	for _, o := range outcomes {
		if containsLabel(o, "ok") {
			switch {
			case len(o) > 8 && o[:8] == "degraded":
				degraded++
			case len(o) > 6 && o[:6] == "healed":
				healed++
			}
		}
	}
	if degraded == 0 || healed == 0 {
		t.Errorf("scenario produced %d degraded and %d healed reads: %v", degraded, healed, outcomes)
	}
}
