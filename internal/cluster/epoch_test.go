package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestElectionTieBreakDeterministic is the regression test for the total
// election order: two (or more) same-capacity nodes must elect the same
// leader — the lowest ID — on every directory, for every join order, across
// seeds. Before the fix the tie-break depended on iteration order alone.
func TestElectionTieBreakDeterministic(t *testing.T) {
	const equalFree = 1 << 20
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := []NodeID{1, 2, 3, 4, 5}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 3})
		for _, id := range ids {
			d.Join(id, equalFree)
		}
		leader, ok := d.Leader(0)
		if !ok || leader != 1 {
			t.Fatalf("seed %d join order %v: leader = %d,%v, want 1 (lowest ID on tie)", seed, ids, leader, ok)
		}
		// Crash the leader: the next-lowest equal-capacity node must win,
		// again identically for every join order.
		for i := 0; i < 4; i++ {
			for _, id := range ids {
				if id != 1 {
					if err := d.Heartbeat(id, equalFree); err != nil {
						t.Fatal(err)
					}
				}
			}
			d.Tick()
		}
		if d.Alive(1) {
			t.Fatalf("seed %d: node 1 should be down", seed)
		}
		leader, ok = d.Leader(0)
		if !ok || leader != 2 {
			t.Fatalf("seed %d: post-crash leader = %d,%v, want 2", seed, leader, ok)
		}
	}
}

// TestEpochBumpsOnMembershipNotHeartbeat pins the epoch semantics: joins,
// downs, leaves, and elections advance the map version; a plain freeBytes
// refresh does not.
func TestEpochBumpsOnMembershipNotHeartbeat(t *testing.T) {
	d := newDir(t, Config{GroupSize: 4, HeartbeatTimeout: 2})
	if got := d.Epoch(); got != 0 {
		t.Fatalf("initial epoch = %d, want 0", got)
	}
	d.Join(1, 100)
	e1 := d.Epoch()
	if e1 == 0 {
		t.Fatal("join did not bump epoch")
	}
	if err := d.Heartbeat(1, 90); err != nil {
		t.Fatal(err)
	}
	if got := d.Epoch(); got != e1 {
		t.Fatalf("heartbeat bumped epoch %d -> %d", e1, got)
	}
	d.Join(2, 200) // joins and takes leadership (more memory)
	e2 := d.Epoch()
	if e2 <= e1 {
		t.Fatalf("second join: epoch %d, want > %d", e2, e1)
	}
	d.Leave(2)
	if got := d.Epoch(); got <= e2 {
		t.Fatalf("leave: epoch %d, want > %d", got, e2)
	}
}

// TestLeaveRemovesAndReelects covers graceful decommission: the node is
// gone (not down), its leadership moves, and the delta records Left.
func TestLeaveRemovesAndReelects(t *testing.T) {
	d := newDir(t, Config{GroupSize: 4, HeartbeatTimeout: 3})
	d.Join(1, 100)
	d.Join(2, 300)
	before := d.Epoch()
	events := d.Leave(2)
	var left, elected bool
	for _, e := range events {
		if e.Kind == EventNodeLeft && e.Node == 2 {
			left = true
		}
		if e.Kind == EventLeaderElected && e.Node == 1 {
			elected = true
		}
	}
	if !left || !elected {
		t.Fatalf("events = %v, want node-left(2) and leader-elected(1)", events)
	}
	if _, err := d.GroupOf(2); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("node 2 still known after Leave: %v", err)
	}
	deltas, ok := d.DeltasSince(before)
	if !ok || len(deltas) == 0 {
		t.Fatalf("DeltasSince(%d) = %v,%v", before, deltas, ok)
	}
	var sawLeft bool
	for _, delta := range deltas {
		for _, ch := range delta.Changes {
			if ch.Left && ch.State.ID == 2 {
				sawLeft = true
			}
		}
	}
	if !sawLeft {
		t.Fatalf("delta log does not record the departure: %+v", deltas)
	}
}

// TestDeltasSinceCompaction pins the snapshot fallback: a consumer behind
// the bounded log gets ok=false and must resync from a snapshot.
func TestDeltasSinceCompaction(t *testing.T) {
	d := newDir(t, Config{GroupSize: 1 << 20, HeartbeatTimeout: 2})
	d.Join(1, 100)
	// Churn one node up/down well past the log bound.
	for i := 0; int(d.Epoch()) < maxDeltaLog+10; i++ {
		d.Join(2, 50)
		d.Leave(2)
	}
	if _, ok := d.DeltasSince(0); ok {
		t.Fatal("DeltasSince(0) should report compacted")
	}
	cur := d.Epoch()
	deltas, ok := d.DeltasSince(cur - 5)
	if !ok || len(deltas) != 5 {
		t.Fatalf("DeltasSince(cur-5) = %d deltas, %v; want 5, true", len(deltas), ok)
	}
	if deltas[0].Epoch != cur-4 || deltas[4].Epoch != cur {
		t.Fatalf("delta epochs [%d..%d], want [%d..%d]", deltas[0].Epoch, deltas[4].Epoch, cur-4, cur)
	}
	if _, ok := d.DeltasSince(cur + 1); ok {
		t.Fatal("DeltasSince(future) should not be ok")
	}
}

// TestClientMapConvergesViaDeltas drives a client cache through incremental
// syncs and checks it lands byte-identical to the directory's own snapshot.
func TestClientMapConvergesViaDeltas(t *testing.T) {
	const self = NodeID(1)
	d := newDir(t, Config{GroupSize: 2, HeartbeatTimeout: 3})
	cm := NewClientMap()

	sync := func() {
		resp := d.Sync(self, cm.Request())
		if err := cm.Apply(resp); err != nil {
			// Stale cache: resync via snapshot, as a real client would.
			snap := d.SnapshotMap()
			cm.ApplySnapshot(self, snap)
		}
	}

	d.Join(1, 100)
	sync()
	d.Join(2, 200)
	d.Join(3, 300)
	sync()
	d.Join(4, 400)
	d.Leave(3)
	sync()

	if got, want := cm.Snapshot(), d.SnapshotMap(); !reflect.DeepEqual(got, want) {
		t.Fatalf("client map diverged:\n got %+v\nwant %+v", got, want)
	}
	_, epoch := cm.Epoch()
	if epoch != d.Epoch() {
		t.Fatalf("client epoch %d != directory epoch %d", epoch, d.Epoch())
	}
	// Already-current sync is a no-op.
	resp := d.Sync(self, cm.Request())
	if resp.Snapshot != nil || len(resp.Deltas) != 0 {
		t.Fatalf("current client got non-empty sync: %+v", resp)
	}
}

// TestClientMapOriginSwitchForcesSnapshot pins that epochs are origin-scoped.
func TestClientMapOriginSwitchForcesSnapshot(t *testing.T) {
	d1 := newDir(t, Config{GroupSize: 4, HeartbeatTimeout: 3})
	d2 := newDir(t, Config{GroupSize: 4, HeartbeatTimeout: 3})
	d1.Join(1, 100)
	d2.Join(1, 100)
	d2.Join(2, 200)

	cm := NewClientMap()
	cm.ApplySnapshot(1, d1.SnapshotMap())

	// Deltas from a different origin must be rejected...
	deltas, ok := d2.DeltasSince(0)
	if !ok {
		t.Fatal("d2 deltas unavailable")
	}
	if err := cm.ApplyDeltas(2, deltas); !errors.Is(err, ErrMapStale) {
		t.Fatalf("cross-origin ApplyDeltas err = %v, want ErrMapStale", err)
	}
	// ...and a responder seeing a foreign origin answers with a snapshot.
	resp := d2.Sync(2, cm.Request())
	if resp.Snapshot == nil {
		t.Fatalf("cross-origin sync should snapshot, got %+v", resp)
	}
	if err := cm.Apply(resp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cm.Snapshot(), d2.SnapshotMap()) {
		t.Fatal("client map did not adopt the new origin's snapshot")
	}
}

// TestSyncWireRoundTrip pins the exported codec: request, delta, snapshot,
// and all three response kinds survive encode/decode bit-exactly.
func TestSyncWireRoundTrip(t *testing.T) {
	req := SyncRequest{Origin: 7, Epoch: 42}
	gotReq, rest, err := DecodeSyncRequest(AppendSyncRequest(nil, req))
	if err != nil || len(rest) != 0 || gotReq != req {
		t.Fatalf("request round trip = %+v, %d leftover, %v", gotReq, len(rest), err)
	}

	delta := Delta{
		Epoch:  9,
		Groups: 3,
		Changes: []Change{
			{State: NodeState{ID: 4, FreeBytes: 1 << 30, Alive: true, Group: 2}},
			{State: NodeState{ID: 5}, Left: true},
		},
		Leaders:        []GroupLeader{{Group: 0, Leader: 1}, {Group: 2, Leader: 4}},
		LeadersChanged: true,
		Root:           1,
		RootOK:         true,
	}
	gotDelta, rest, err := DecodeDelta(AppendDelta(nil, delta))
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(gotDelta, delta) {
		t.Fatalf("delta round trip:\n got %+v\nwant %+v (err %v)", gotDelta, delta, err)
	}

	snap := MapSnapshot{
		Epoch:  11,
		Groups: 2,
		Nodes: []NodeState{
			{ID: 1, FreeBytes: 10, Alive: true, Group: 0},
			{ID: 2, FreeBytes: 20, Alive: false, Group: 1},
		},
		Leaders: []GroupLeader{{Group: 0, Leader: 1}},
		Root:    1,
		RootOK:  true,
	}
	gotSnap, rest, err := DecodeSnapshot(AppendSnapshot(nil, snap))
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(gotSnap, snap) {
		t.Fatalf("snapshot round trip:\n got %+v\nwant %+v (err %v)", gotSnap, snap, err)
	}

	for _, resp := range []SyncResponse{
		{Origin: 3},
		{Origin: 3, Deltas: []Delta{delta}},
		{Origin: 3, Snapshot: &snap},
	} {
		got, rest, err := DecodeSyncResponse(AppendSyncResponse(nil, resp))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, resp) {
			t.Fatalf("response round trip:\n got %+v\nwant %+v (err %v)", got, resp, err)
		}
	}

	// Truncated payloads must error, never panic or misparse.
	full := AppendSyncResponse(nil, SyncResponse{Origin: 3, Snapshot: &snap})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeSyncResponse(full[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
	}
}

// TestDeltaBytesOChurn is the wire-cost claim behind the design: one node
// joining a large cluster produces a delta whose encoding is a small
// constant, while the full snapshot grows with cluster size.
func TestDeltaBytesOChurn(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 3})
	const n = 200
	for i := 1; i <= n; i++ {
		d.Join(NodeID(i), 1<<20)
	}
	before := d.Epoch()
	d.Join(n+1, 1<<20) // lands in an existing partial group: pure churn
	deltas, ok := d.DeltasSince(before)
	if !ok {
		t.Fatal("delta log should cover one join")
	}
	var deltaBytes []byte
	for _, delta := range deltas {
		deltaBytes = AppendDelta(deltaBytes, delta)
	}
	snapBytes := AppendSnapshot(nil, d.SnapshotMap())
	if len(deltaBytes) == 0 {
		t.Fatal("join produced no delta bytes")
	}
	// A single join's delta: a handful of changes plus possibly the
	// O(groups) leader list — far below the O(nodes) snapshot.
	if len(deltaBytes)*4 > len(snapBytes) {
		t.Fatalf("delta not O(churn): %d bytes vs snapshot %d bytes", len(deltaBytes), len(snapBytes))
	}
	t.Logf("delta=%dB snapshot=%dB (%d nodes)", len(deltaBytes), len(snapBytes), n+1)
}

// TestTreeTargetsRoles pins the heartbeat-tree shape: members beat their
// leader, leaders beat their members plus the root, the root beats every
// leader plus its own group.
func TestTreeTargetsRoles(t *testing.T) {
	d := newDir(t, Config{GroupSize: 3, HeartbeatTimeout: 3})
	// Group 0: 1,2,3 (leader 1: most memory). Group 1: 4,5,6 (leader 4).
	frees := map[NodeID]int64{1: 600, 2: 100, 3: 100, 4: 500, 5: 100, 6: 100}
	for id := NodeID(1); id <= 6; id++ {
		d.Join(id, frees[id])
	}
	root, ok := d.RootLeader()
	if !ok || root != 1 {
		t.Fatalf("root = %d,%v, want 1", root, ok)
	}
	want := map[NodeID][]NodeID{
		1: {2, 3, 4}, // root: own group members + other leaders
		2: {1},       // member -> leader
		3: {1},       // member -> leader
		4: {1, 5, 6}, // leader: root + own members
		5: {4},       // member -> leader
		6: {4},       // member -> leader
	}
	for id, targets := range want {
		if got := d.TreeTargets(id); !reflect.DeepEqual(got, targets) {
			t.Errorf("TreeTargets(%d) = %v, want %v", id, got, targets)
		}
	}
	// Total heartbeat edges stay O(n), not O(n^2): 10 directed edges for 6
	// nodes here, versus 30 all-to-all.
	total := 0
	for id := NodeID(1); id <= 6; id++ {
		total += len(d.TreeTargets(id))
	}
	if total >= 6*5 {
		t.Fatalf("tree fan-out %d not below all-to-all %d", total, 6*5)
	}
}

// TestReconcileVouchingAndWatchScope covers second-hand state adoption: a
// reconcile refreshes vouched-alive nodes' failure detectors, adopts
// unknown nodes, honours Left, and never overrides the watched set.
func TestReconcileVouchingAndWatchScope(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 2})
	d.Join(1, 100)
	d.Join(2, 200)

	// Adopt an unknown node 3; a second-hand down-report about watched node
	// 2 must be ignored (liveness is first-hand there), but a group move
	// carrying a newer incarnation is authoritative and adopted — while a
	// stale-incarnation claim must not revert it.
	watched := map[NodeID]bool{2: true}
	events := d.Reconcile(1, []Change{
		{State: NodeState{ID: 3, FreeBytes: 50, Alive: true, Group: 0}},
		{State: NodeState{ID: 2, FreeBytes: 200, Alive: false, Group: 1, Gver: 2}},
	}, watched)
	if !d.Alive(3) {
		t.Fatalf("node 3 not adopted (events %v)", events)
	}
	if !d.Alive(2) {
		t.Fatal("watched node 2 marked down by second-hand gossip")
	}
	if g, _ := d.GroupOf(2); g != 1 {
		t.Fatalf("watched node 2 group = %d, want adopted group 1", g)
	}
	d.Reconcile(1, []Change{{State: NodeState{ID: 2, FreeBytes: 200, Alive: true, Group: 0, Gver: 1}}}, watched)
	if g, _ := d.GroupOf(2); g != 1 {
		t.Fatalf("stale group claim reverted node 2 to group %d", g)
	}
	// A Left departure is authoritative even for watched nodes...
	d.Reconcile(1, []Change{{State: NodeState{ID: 2}, Left: true}}, watched)
	if _, err := d.GroupOf(2); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("authoritative Left for watched node 2 not adopted")
	}
	// ...but gossip cannot resurrect a first-hand-watched departed peer.
	d.Reconcile(1, []Change{{State: NodeState{ID: 2, Alive: true, Group: 0}}}, watched)
	if _, err := d.GroupOf(2); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("second-hand gossip resurrected watched node 2")
	}
	d.Join(2, 200) // rejoin for the vouching phase below

	// Vouching: only node 1 (self) and 2 heartbeat directly; node 3 stays
	// alive as long as reconciles vouch for it...
	for i := 0; i < 4; i++ {
		_ = d.Heartbeat(2, 200)
		d.Reconcile(1, []Change{{State: NodeState{ID: 3, FreeBytes: 50, Alive: true, Group: 0}}}, watched)
		d.TickWatched(map[NodeID]bool{2: true, 3: true})
	}
	if !d.Alive(3) {
		t.Fatal("vouched node 3 went stale despite reconciles")
	}
	// ...and goes down once the vouching stops.
	for i := 0; i < 4; i++ {
		_ = d.Heartbeat(2, 200)
		d.TickWatched(map[NodeID]bool{2: true, 3: true})
	}
	if d.Alive(3) {
		t.Fatal("unvouched node 3 still alive")
	}
}

// TestTickWatchedNewWatcherGrace: a peer that was nobody's to judge is not
// condemned on the tick it enters the watch set — a freshly elected leader
// starts watching members that were never asked to beat it. The detector
// clock of an unwatched node is held at now, so the newcomer gets the full
// timeout to send its first beat.
func TestTickWatchedNewWatcherGrace(t *testing.T) {
	d := newDir(t, Config{GroupSize: 4, HeartbeatTimeout: 2})
	d.Join(1, 100)
	d.Join(2, 200)
	d.Join(3, 300)
	for i := 0; i < 10; i++ {
		_ = d.Heartbeat(2, 200)
		d.TickWatched(map[NodeID]bool{2: true})
	}
	if !d.Alive(3) {
		t.Fatal("unwatched node 3 declared down")
	}
	both := map[NodeID]bool{2: true, 3: true}
	for i := 0; i < 2; i++ {
		_ = d.Heartbeat(2, 200)
		if d.TickWatched(both); !d.Alive(3) {
			t.Fatalf("node 3 declared down %d tick(s) after entering the watch set, timeout is 2", i+1)
		}
	}
	_ = d.Heartbeat(2, 200)
	if d.TickWatched(both); d.Alive(3) {
		t.Fatal("silent watched node 3 still alive past the timeout")
	}
}

// TestAdoptLeadersAuthority pins the root-wins rule: upstream leadership
// overwrites a local provisional choice, but a leader the local view
// believes dead is not adopted.
func TestAdoptLeadersAuthority(t *testing.T) {
	d := newDir(t, Config{GroupSize: 4, HeartbeatTimeout: 2})
	d.Join(1, 100)
	d.Join(2, 200)
	if leader, _ := d.Leader(0); leader != 2 {
		t.Fatalf("leader = %d, want 2", leader)
	}
	// Upstream says node 1 leads group 0: adopt.
	d.AdoptLeaders([]GroupLeader{{Group: 0, Leader: 1}}, 1)
	if leader, _ := d.Leader(0); leader != 1 {
		t.Fatalf("adoption failed: leader = %d, want 1", leader)
	}
	// Kill node 2 locally; upstream naming it leader must be refused.
	for i := 0; i < 3; i++ {
		_ = d.Heartbeat(1, 100)
		d.Tick()
	}
	if d.Alive(2) {
		t.Fatal("node 2 should be down")
	}
	d.AdoptLeaders([]GroupLeader{{Group: 0, Leader: 2}}, 1)
	if leader, _ := d.Leader(0); leader == 2 {
		t.Fatal("adopted a leader the local view knows is dead")
	}
}
