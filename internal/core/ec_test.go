package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/faulty"
	"godm/internal/placement"
	"godm/internal/simnet"
	"godm/internal/transport"
)

// ecConfig is smallConfig with the RS(4,2) coding policy and a round-robin
// balancer on the owner so donor positions are deterministic.
func ecConfig(id transport.NodeID) Config {
	cfg := smallConfig(id)
	cfg.Durability = "rs4.2"
	if id == 1 {
		cfg.Balancer = placement.NewRoundRobin()
	}
	return cfg
}

func ecPayload(n int, seed int64) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestDurabilityConfigParsing(t *testing.T) {
	cases := []struct {
		in     string
		coding bool
		rf, k  int
		bad    bool
	}{
		{in: "", rf: 3},
		{in: "rf2", rf: 2},
		{in: "rs4.2", coding: true, k: 4},
		{in: "rs2.1", coding: true, k: 2},
		{in: "rf0", bad: true},
		{in: "rs0.2", bad: true},
		{in: "rs4.0", bad: true},
		{in: "raid5", bad: true},
	}
	for _, c := range cases {
		spec, err := parseDurability(c.in, 3)
		if c.bad {
			if err == nil {
				t.Errorf("parseDurability(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseDurability(%q): %v", c.in, err)
			continue
		}
		if spec.coding != c.coding || (!c.coding && spec.rf != c.rf) || (c.coding && spec.k != c.k) {
			t.Errorf("parseDurability(%q) = %+v", c.in, spec)
		}
	}
	// A bad spec is rejected at node construction, not first use.
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	dir, _ := cluster.NewDirectory(cluster.DefaultConfig())
	ep, _ := fabric.Attach(1)
	bad := smallConfig(1)
	bad.Durability = "rs.2"
	if _, err := NewNode(bad, ep, dir); err == nil {
		t.Fatal("NewNode accepted malformed durability spec")
	}
}

// TestECStripedPutGetDelete drives the full striped remote path over the
// simulated fabric: a PutRemote under rs4.2 must land one shard on each of 6
// distinct donors (with stripe coordinates queryable host-side), cost half
// the remote bytes of 3-way replication, read back byte-identical — whole and
// in sub-ranges crossing shard boundaries — and delete without stranding a
// single remote block.
func TestECStripedPutGetDelete(t *testing.T) {
	tc := newTestCluster(t, 7, ecConfig)
	owner := tc.nodes[0]
	vs, _ := owner.AddServer("vm0", 4096)
	data := ecPayload(4096, 21)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		loc, _ := vs.Location(1)
		set := loc.Holders()
		if len(set) != 6 {
			t.Errorf("stripe set %v, want 6 donors", set)
			return
		}
		key := vs.key(1)
		seen := map[transport.NodeID]bool{}
		var stripedBytes int64
		for pos, member := range set {
			donor := transport.NodeID(member)
			if donor == owner.ID() || seen[donor] {
				t.Errorf("stripe set %v: donor %d repeated or self", set, donor)
			}
			seen[donor] = true
			host := tc.nodes[donor-1]
			if !host.HostsRemoteKey(owner.ID(), key) {
				t.Errorf("donor %d hosts no shard", donor)
				continue
			}
			idx, k, m, ok := host.ShardInfo(owner.ID(), key)
			if !ok || idx != pos || k != 4 || m != 2 {
				t.Errorf("donor %d shard coords = (%d,%d,%d,%v), want (%d,4,2,true)",
					donor, idx, k, m, ok, pos)
			}
			stripedBytes += host.RecvPool().Stats().LiveBytes
		}
		// The acceptance bar: RS(4,2) must beat RF=3 by >= 1.8x remote bytes
		// per durable byte. 6 shards of class 1024 = 1.5x the payload, vs 3
		// full copies = 3.0x.
		rf3Bytes := int64(3 * 4096)
		if float64(rf3Bytes)/float64(stripedBytes) < 1.8 {
			t.Errorf("capacity ratio %.2f (rf3 %d / rs4.2 %d) below 1.8",
				float64(rf3Bytes)/float64(stripedBytes), rf3Bytes, stripedBytes)
		}
		got, _, err := vs.Get(ctx, 1)
		if err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("striped read differs from payload")
		}
		// Sub-range reads, including ranges that straddle shard boundaries
		// (shard length 1024).
		for _, r := range [][2]int{{0, 16}, {1000, 100}, {1023, 2}, {3072, 1024}, {4095, 1}} {
			part, err := getAt(ctx, vs, 1, r[0], r[1])
			if err != nil {
				t.Errorf("GetAtInto(%d,%d): %v", r[0], r[1], err)
				continue
			}
			if !bytes.Equal(part, data[r[0]:r[0]+r[1]]) {
				t.Errorf("GetAtInto(%d,%d) differs", r[0], r[1])
			}
		}
		if err := vs.Delete(ctx, 1); err != nil {
			t.Errorf("Delete: %v", err)
		}
		if n := owner.remote.handleCount(); n != 0 {
			t.Errorf("owner tracks %d handles after delete, want 0", n)
		}
	})
	// Every shard block and its host-side coordinates are gone.
	key := vs.key(1)
	for _, n := range tc.nodes[1:] {
		if st := n.RecvPool().Stats(); st.LiveBlocks != 0 {
			t.Errorf("node %d recv pool has %d live blocks after delete", n.ID(), st.LiveBlocks)
		}
		if _, _, _, ok := n.ShardInfo(owner.ID(), key); ok {
			t.Errorf("node %d still advertises shard coords after delete", n.ID())
		}
	}
}

// TestECDegradedReadAndRepair kills one data-shard donor: the very next read
// must reconstruct from the survivors, and the next Maintain pass must
// rebuild the lost shard onto the spare node at the original stripe position.
func TestECDegradedReadAndRepair(t *testing.T) {
	tc := newTestCluster(t, 8, ecConfig) // owner + 6 stripe donors + 1 spare
	owner := tc.nodes[0]
	vs, _ := owner.AddServer("vm0", 4096)
	data := ecPayload(4000, 22)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := vs.PutRemote(ctx, 2, data, 4096, 4096); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		loc, _ := vs.Location(2)
		set := loc.Holders()
		lost := transport.NodeID(set[0]) // position 0: a data shard
		tc.dir.Leave(cluster.NodeID(lost))
		if queued := owner.RepairLost(lost); queued != 1 {
			t.Errorf("RepairLost queued %d entries, want 1", queued)
		}
		got, _, err := vs.Get(ctx, 2)
		if err != nil {
			t.Errorf("degraded Get: %v", err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("degraded read differs from payload")
		}
		repaired, err := owner.Maintain(ctx)
		if err != nil || repaired != 1 {
			t.Errorf("Maintain = (%d, %v), want (1, nil)", repaired, err)
			return
		}
		after, _ := vs.Location(2)
		newSet := after.Holders()
		replacement := transport.NodeID(newSet[0])
		if replacement == lost {
			t.Errorf("lost donor %d still at stripe position 0", lost)
		}
		for i := 1; i < len(newSet); i++ {
			if newSet[i] != set[i] {
				t.Errorf("surviving position %d moved: %v -> %v", i, set, newSet)
			}
		}
		idx, k, m, ok := tc.nodes[replacement-1].ShardInfo(owner.ID(), vs.key(2))
		if !ok || idx != 0 || k != 4 || m != 2 {
			t.Errorf("replacement %d coords = (%d,%d,%d,%v), want (0,4,2,true)",
				replacement, idx, k, m, ok)
		}
		got2, _, err := vs.Get(ctx, 2)
		if err != nil || !bytes.Equal(got2, data) {
			t.Errorf("read after repair: %v", err)
		}
	})
	if owner.Stats().RepairsDone != 1 {
		t.Fatalf("RepairsDone = %d, want 1", owner.Stats().RepairsDone)
	}
}

// TestECOverwriteReleasesOldStripe is the striped-overwrite regression test:
// donors refuse a second block under the same (owner, key) — the
// distinct-donor invariant — so PutRemote must release the old stripe before
// writing the new one. With 7 nodes and 6-donor stripes the new pick always
// overlaps the old set, which is exactly the case the write-new-then-drop-old
// order could never satisfy. After the overwrite the entry must read back as
// the new payload with no stranded blocks from the old generation.
func TestECOverwriteReleasesOldStripe(t *testing.T) {
	tc := newTestCluster(t, 7, ecConfig)
	owner := tc.nodes[0]
	vs, _ := owner.AddServer("vm0", 4096)
	first := ecPayload(4096, 31)
	second := ecPayload(4096, 32)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		for i, data := range [][]byte{first, second} {
			if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
				t.Errorf("PutRemote #%d: %v", i, err)
				return
			}
		}
		got, _, err := vs.Get(ctx, 1)
		if err != nil {
			t.Errorf("Get after overwrite: %v", err)
			return
		}
		if !bytes.Equal(got, second) {
			t.Error("overwritten entry reads back stale or torn bytes")
		}
		live := 0
		for _, n := range tc.nodes[1:] {
			live += n.RecvPool().Stats().LiveBlocks
		}
		if live != 6 {
			t.Errorf("%d live donor blocks after overwrite, want 6 (old stripe leaked)", live)
		}
		if err := vs.Delete(ctx, 1); err != nil {
			t.Errorf("Delete: %v", err)
		}
	})
	for _, n := range tc.nodes[1:] {
		if st := n.RecvPool().Stats(); st.LiveBlocks != 0 {
			t.Errorf("node %d recv pool has %d live blocks after delete", n.ID(), st.LiveBlocks)
		}
	}
}

// TestECWidthExceedsPeersFails: a stripe needs k+m distinct donors; a cluster
// with fewer peers refuses the put instead of doubling shards up.
func TestECWidthExceedsPeersFails(t *testing.T) {
	tc := newTestCluster(t, 4, ecConfig) // 3 peers < 6 shards
	vs, _ := tc.nodes[0].AddServer("vm0", 4096)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		err := vs.PutRemote(ctx, 1, ecPayload(4096, 23), 4096, 4096)
		if err == nil {
			t.Error("PutRemote with too few donors succeeded")
		}
	})
}

// TestMaintainPartialShardRepairRequeues is the requeue-accounting
// regression test: when a repair pass restores only some of a stripe's lost
// shards (here: one of two replacement writes is dropped by the fault
// injector), Maintain must requeue exactly the still-missing donors — not
// count the entry repaired, and not forget the remainder. A later pass over
// a healed fabric finishes the job.
func TestMaintainPartialShardRepairRequeues(t *testing.T) {
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: 7, HeartbeatTimeout: 3})
	if err != nil {
		t.Fatal(err)
	}
	inj := faulty.New(7)
	inj.SetEnabled(false)
	var nodes []*Node
	for i := 1; i <= 7; i++ {
		id := transport.NodeID(i)
		ep, err := fabric.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		var v transport.Endpoint = ep
		if i == 1 {
			// Repair traffic originates at the owner; wrap its endpoint so
			// the injector sees the replacement writes.
			v = inj.Wrap(ep)
		}
		cfg := smallConfig(id)
		cfg.Durability = "rs2.2"
		if i == 1 {
			cfg.Balancer = placement.NewRoundRobin()
		}
		n, err := NewNode(cfg, v, dir)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	owner := nodes[0]
	vs, _ := owner.AddServer("vm0", 4096)
	data := ecPayload(4096, 24)
	env.Go("test", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		loc, _ := vs.Location(1)
		set := loc.Holders() // 4 donors of the rs2.2 stripe
		inSet := map[transport.NodeID]bool{}
		for _, m := range set {
			inSet[transport.NodeID(m)] = true
		}
		var spares []transport.NodeID
		for i := transport.NodeID(2); i <= 7; i++ {
			if !inSet[i] {
				spares = append(spares, i)
			}
		}
		if len(spares) != 2 {
			t.Errorf("spares = %v, want 2", spares)
			return
		}
		// Both data-shard donors die.
		lost1, lost2 := transport.NodeID(set[0]), transport.NodeID(set[1])
		dir.Leave(cluster.NodeID(lost1))
		dir.Leave(cluster.NodeID(lost2))
		owner.RepairLost(lost1)
		owner.RepairLost(lost2)
		// One of the two spares never receives the replacement shard.
		blocked := spares[1]
		inj.AddRule(faulty.Rule{
			Kind: faulty.KindDrop, Verb: faulty.VerbCall,
			From: faulty.AnyNode, To: blocked, Pct: 100,
		})
		inj.SetEnabled(true)
		repaired, err := owner.Maintain(ctx)
		if err != nil {
			t.Errorf("first Maintain: %v", err)
			return
		}
		if repaired != 0 {
			t.Errorf("first Maintain counted %d entries repaired; the stripe is still short a shard", repaired)
		}
		// Exactly the unrestored donor is queued again — no duplicates, no
		// forgotten remainder, no re-repair of the shard that did land.
		owner.repairMu.Lock()
		pend := append([]pendingRepair(nil), owner.pendingRepairs...)
		owner.repairMu.Unlock()
		if len(pend) != 1 || pend[0].key != vs.key(1) {
			t.Errorf("pendingRepairs = %+v, want one record for key %d", pend, vs.key(1))
			return
		}
		if pend[0].lost != lost1 && pend[0].lost != lost2 {
			t.Errorf("requeued donor %d is not one of the lost donors %d/%d", pend[0].lost, lost1, lost2)
		}
		// The pass made real progress: one lost position now points at the
		// reachable spare, and the stripe stays readable (degraded).
		mid, _ := vs.Location(1)
		midSet := mid.Holders()
		healedSpare := 0
		for _, m := range midSet {
			if transport.NodeID(m) == spares[0] {
				healedSpare++
			}
			if transport.NodeID(m) == blocked {
				t.Errorf("blocked spare %d entered the stripe set %v", blocked, midSet)
			}
		}
		if healedSpare != 1 {
			t.Errorf("stripe set %v does not include the reachable spare %d", midSet, spares[0])
		}
		if got, _, err := vs.Get(ctx, 1); err != nil || !bytes.Equal(got, data) {
			t.Errorf("degraded read after partial repair: %v", err)
		}
		// Fabric heals; the requeued remainder completes.
		inj.SetEnabled(false)
		repaired, err = owner.Maintain(ctx)
		if err != nil || repaired != 1 {
			t.Errorf("second Maintain = (%d, %v), want (1, nil)", repaired, err)
			return
		}
		owner.repairMu.Lock()
		left := len(owner.pendingRepairs)
		owner.repairMu.Unlock()
		if left != 0 {
			t.Errorf("%d repairs still queued after full restore", left)
		}
		final, _ := vs.Location(1)
		for _, m := range final.Holders() {
			if transport.NodeID(m) == lost1 || transport.NodeID(m) == lost2 {
				t.Errorf("dead donor %d still in final stripe set", m)
			}
		}
		if got, _, err := vs.Get(ctx, 1); err != nil || !bytes.Equal(got, data) {
			t.Errorf("read after staged repair: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
