package cluster

import (
	"errors"
	"testing"
)

func newDir(t *testing.T, cfg Config) *Directory {
	t.Helper()
	d, err := NewDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func hasEvent(events []Event, kind EventKind, node NodeID) bool {
	for _, e := range events {
		if e.Kind == kind && e.Node == node {
			return true
		}
	}
	return false
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewDirectory(Config{GroupSize: 0, HeartbeatTimeout: 1}); err == nil {
		t.Fatal("expected error for group size 0")
	}
	if _, err := NewDirectory(Config{GroupSize: 1, HeartbeatTimeout: 0}); err == nil {
		t.Fatal("expected error for timeout 0")
	}
}

func TestJoinElectsLeaderWithMaxFreeMemory(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 3})
	d.Join(1, 100)
	d.Join(2, 300)
	events := d.Join(3, 200)
	_ = events
	leader, ok := d.Leader(0)
	if !ok {
		t.Fatal("no leader elected")
	}
	if leader != 2 {
		t.Fatalf("leader = %d, want 2 (max free memory)", leader)
	}
}

func TestLeaderStableAcrossHeartbeats(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 3})
	d.Join(1, 100)
	d.Join(2, 300)
	// Node 1 later advertises more memory, but a healthy leader is kept.
	if err := d.Heartbeat(1, 999); err != nil {
		t.Fatal(err)
	}
	if err := d.Heartbeat(2, 300); err != nil {
		t.Fatal(err)
	}
	events := d.Tick()
	if hasEvent(events, EventLeaderElected, 1) {
		t.Fatalf("leadership churned: %v", events)
	}
	if leader, _ := d.Leader(0); leader != 2 {
		t.Fatalf("leader = %d, want 2", leader)
	}
}

func TestHeartbeatTimeoutDeclaresDown(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 2})
	d.Join(1, 100)
	d.Join(2, 200)
	var downAt int
	for i := 1; i <= 5; i++ {
		_ = d.Heartbeat(2, 200) // node 1 goes silent
		events := d.Tick()
		if hasEvent(events, EventNodeDown, 1) {
			downAt = i
			break
		}
	}
	if downAt != 3 { // timeout 2 ticks -> declared down on tick 3
		t.Fatalf("node declared down at tick %d, want 3", downAt)
	}
	if d.Alive(1) {
		t.Fatal("node 1 still alive")
	}
	if !d.Alive(2) {
		t.Fatal("node 2 should be alive")
	}
}

func TestLeaderCrashTriggersReelection(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 1})
	d.Join(1, 100)
	d.Join(2, 300) // leader
	d.Join(3, 200)
	if leader, _ := d.Leader(0); leader != 2 {
		t.Fatalf("initial leader = %d, want 2", leader)
	}
	// Node 2 goes silent; 1 and 3 keep beating.
	var newLeader NodeID
	for i := 0; i < 4; i++ {
		_ = d.Heartbeat(1, 100)
		_ = d.Heartbeat(3, 200)
		events := d.Tick()
		for _, e := range events {
			if e.Kind == EventLeaderElected {
				newLeader = e.Node
			}
		}
	}
	if newLeader != 3 {
		t.Fatalf("re-elected leader = %d, want 3 (max free among alive)", newLeader)
	}
}

func TestHeartbeatRevivesDownNode(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 1})
	d.Join(1, 100)
	d.Join(2, 200)
	for i := 0; i < 3; i++ {
		_ = d.Heartbeat(2, 200)
		d.Tick()
	}
	if d.Alive(1) {
		t.Fatal("node 1 should be down")
	}
	if err := d.Heartbeat(1, 100); err != nil {
		t.Fatal(err)
	}
	if !d.Alive(1) {
		t.Fatal("heartbeat should revive node 1")
	}
}

func TestHeartbeatUnknownNode(t *testing.T) {
	d := newDir(t, DefaultConfig())
	if err := d.Heartbeat(99, 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if _, err := d.GroupOf(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestGroupingSplitsEvenly(t *testing.T) {
	d := newDir(t, Config{GroupSize: 4, HeartbeatTimeout: 3})
	for i := 1; i <= 10; i++ {
		d.Join(NodeID(i), int64(i))
	}
	if got := d.Groups(); got != 3 { // ceil(10/4)
		t.Fatalf("Groups = %d, want 3", got)
	}
	// Stable joins fill groups to GroupSize before opening a new one: no
	// group exceeds GroupSize and only the newest group runs partial.
	counts := map[int]int{}
	for _, s := range d.Snapshot() {
		if s.Alive {
			counts[s.Group]++
		}
	}
	for g, c := range counts {
		if c > 4 || c < 1 {
			t.Fatalf("group %d has %d members, want 1-4 (counts %v)", g, c, counts)
		}
		if c < 4 && g != 2 {
			t.Fatalf("non-newest group %d partial at %d members (counts %v)", g, c, counts)
		}
	}
	// Every group has a leader.
	for g := 0; g < 3; g++ {
		if _, ok := d.Leader(g); !ok {
			t.Fatalf("group %d has no leader", g)
		}
	}
	// An explicit Regroup rebalances to sizes differing by at most one.
	d.Regroup()
	counts = map[int]int{}
	for _, s := range d.Snapshot() {
		if s.Alive {
			counts[s.Group]++
		}
	}
	for g, c := range counts {
		if c < 3 || c > 4 {
			t.Fatalf("after Regroup group %d has %d members, want 3-4 (counts %v)", g, c, counts)
		}
	}
}

func TestGroupMembersSortedAndAliveOnly(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 1})
	d.Join(3, 30)
	d.Join(1, 10)
	d.Join(2, 20)
	members := d.GroupMembers(0)
	if len(members) != 3 || members[0].ID != 1 || members[2].ID != 3 {
		t.Fatalf("members = %+v, want sorted 1,2,3", members)
	}
	// Kill node 2.
	for i := 0; i < 3; i++ {
		_ = d.Heartbeat(1, 10)
		_ = d.Heartbeat(3, 30)
		d.Tick()
	}
	members = d.GroupMembers(0)
	if len(members) != 2 {
		t.Fatalf("alive members = %+v, want 2", members)
	}
}

func TestRegroupAfterGrowth(t *testing.T) {
	d := newDir(t, Config{GroupSize: 2, HeartbeatTimeout: 5})
	d.Join(1, 1)
	d.Join(2, 2)
	if d.Groups() != 1 {
		t.Fatalf("Groups = %d, want 1", d.Groups())
	}
	events := d.Join(3, 3)
	if d.Groups() != 2 {
		t.Fatalf("Groups after third join = %d, want 2", d.Groups())
	}
	found := false
	for _, e := range events {
		if e.Kind == EventRegrouped {
			found = true
		}
	}
	if !found {
		t.Fatalf("no regroup event in %v", events)
	}
}

func TestExplicitRegroupRebalances(t *testing.T) {
	d := newDir(t, Config{GroupSize: 2, HeartbeatTimeout: 1})
	for i := 1; i <= 4; i++ {
		d.Join(NodeID(i), int64(i))
	}
	// Kill nodes 3 and 4 (group members spread over groups 0 and 1).
	for i := 0; i < 3; i++ {
		_ = d.Heartbeat(1, 1)
		_ = d.Heartbeat(2, 2)
		d.Tick()
	}
	d.Regroup()
	if d.Groups() != 1 {
		t.Fatalf("Groups after shrink regroup = %d, want 1", d.Groups())
	}
	g1, _ := d.GroupOf(1)
	g2, _ := d.GroupOf(2)
	if g1 != g2 {
		t.Fatalf("survivors in different groups %d, %d", g1, g2)
	}
}

func TestEventKindString(t *testing.T) {
	tests := []struct {
		k    EventKind
		want string
	}{
		{EventNodeUp, "node-up"},
		{EventNodeDown, "node-down"},
		{EventLeaderElected, "leader-elected"},
		{EventRegrouped, "regrouped"},
		{EventKind(42), "event(42)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestJoinEmitsNodeUpOnce(t *testing.T) {
	d := newDir(t, DefaultConfig())
	events := d.Join(1, 10)
	if !hasEvent(events, EventNodeUp, 1) {
		t.Fatalf("first join events = %v, want node-up", events)
	}
	events = d.Join(1, 20) // rejoin while alive: no duplicate up event
	if hasEvent(events, EventNodeUp, 1) {
		t.Fatalf("second join events = %v, want no node-up", events)
	}
}

func BenchmarkTick100Nodes(b *testing.B) {
	d, _ := NewDirectory(Config{GroupSize: 8, HeartbeatTimeout: 3})
	for i := 0; i < 100; i++ {
		d.Join(NodeID(i), int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			_ = d.Heartbeat(NodeID(j), int64(j))
		}
		d.Tick()
	}
}

func TestRootLeaderIsMaxFreeAmongLeaders(t *testing.T) {
	d := newDir(t, Config{GroupSize: 2, HeartbeatTimeout: 3})
	// Two groups after four joins; leaders are the max-free member of each.
	d.Join(1, 100)
	d.Join(2, 400)
	d.Join(3, 300)
	d.Join(4, 200)
	root, ok := d.RootLeader()
	if !ok {
		t.Fatal("no root leader")
	}
	// Stable join grouping: group0 = {1,2}, group1 = {3,4}; leaders 2 and 3;
	// node 2 (400) has the most memory.
	if root != 2 {
		t.Fatalf("root leader = %d, want 2", root)
	}
}

func TestRootLeaderSurvivesLeaderCrash(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 1})
	d.Join(1, 100)
	d.Join(2, 300)
	d.Join(3, 200)
	if root, _ := d.RootLeader(); root != 2 {
		t.Fatalf("initial root = %d, want 2", root)
	}
	for i := 0; i < 4; i++ {
		_ = d.Heartbeat(1, 100)
		_ = d.Heartbeat(3, 200)
		d.Tick()
	}
	root, ok := d.RootLeader()
	if !ok || root != 3 {
		t.Fatalf("root after crash = %d (%v), want 3", root, ok)
	}
}

func TestRootLeaderEmptyCluster(t *testing.T) {
	d := newDir(t, DefaultConfig())
	if _, ok := d.RootLeader(); ok {
		t.Fatal("empty cluster has no root leader")
	}
}

func TestGroupFreeBytes(t *testing.T) {
	d := newDir(t, Config{GroupSize: 8, HeartbeatTimeout: 1})
	d.Join(1, 100)
	d.Join(2, 250)
	if got := d.GroupFreeBytes(0); got != 350 {
		t.Fatalf("GroupFreeBytes = %d, want 350", got)
	}
	// A dead member stops counting.
	for i := 0; i < 3; i++ {
		_ = d.Heartbeat(2, 250)
		d.Tick()
	}
	if got := d.GroupFreeBytes(0); got != 250 {
		t.Fatalf("GroupFreeBytes after death = %d, want 250", got)
	}
}
