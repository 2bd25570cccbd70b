// Epoch-versioned disaggregated memory map (§IV.C-D at cluster scale).
//
// Every membership or leadership change in a Directory bumps its epoch and
// appends one Delta to a bounded in-memory log. Peers and clients hold a
// compact snapshot of the map and catch up by pulling the deltas they have
// not seen — O(churn) bytes per sync, not O(cluster size) — falling back to
// a full snapshot only when they are so far behind that the log has been
// compacted past them. Epochs are scoped to their origin directory: an epoch
// from node A's directory is meaningless against node B's log, so every sync
// exchange carries the origin and a consumer that switches origins starts
// from a snapshot.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Epoch versions one directory's memory map. Epoch 0 is the empty map; each
// recorded change increments it by exactly one.
type Epoch uint64

// ErrMapStale is returned by ClientMap.ApplyDeltas when the deltas do not
// extend the cached epoch contiguously (or come from a different origin); the
// caller must resync from a snapshot.
var ErrMapStale = errors.New("cluster: map cache stale, snapshot required")

// GroupLeader names one group's current leader.
type GroupLeader struct {
	Group  int
	Leader NodeID
}

// Change is one node's state transition inside a Delta. Left marks a node
// that departed the cluster for good (decommission); otherwise State is the
// node's state after the change.
type Change struct {
	State NodeState
	Left  bool
}

// Delta is the epoch-versioned difference between two consecutive map
// versions: the node states that changed, plus — when leadership or grouping
// moved — the full (small, O(groups)) leader list and the derived root.
type Delta struct {
	Epoch   Epoch
	Groups  int
	Changes []Change
	// Leaders is the complete leader set after this delta when
	// LeadersChanged, nil otherwise.
	Leaders        []GroupLeader
	LeadersChanged bool
	Root           NodeID
	RootOK         bool
}

// MapSnapshot is a full copy of one directory's map at a single epoch.
type MapSnapshot struct {
	Epoch   Epoch
	Groups  int
	Nodes   []NodeState
	Leaders []GroupLeader
	Root    NodeID
	RootOK  bool
}

// SyncRequest asks a directory for everything after Epoch, as seen from
// Origin's log. Origin is the node whose directory the requester last synced
// from; a responder with a different identity answers with a snapshot.
type SyncRequest struct {
	Origin NodeID
	Epoch  Epoch
}

// SyncResponse carries either a contiguous run of deltas (the cheap path) or
// a full snapshot (the resync path). Exactly one of Deltas/Snapshot is set;
// an empty response (neither) means the requester is already current.
type SyncResponse struct {
	Origin   NodeID
	Deltas   []Delta
	Snapshot *MapSnapshot
}

// maxDeltaLog bounds the per-directory delta log. A consumer more than this
// many epochs behind resyncs from a snapshot; everyone else pays O(churn).
const maxDeltaLog = 512

// maxSyncDeltas bounds one Sync response's delta run. A requester further
// behind than this gets a snapshot instead: shipping a long history costs
// more bytes than the map itself and makes the receiver replay long-dead
// leadership changes (each adoption re-recorded as local churn).
const maxSyncDeltas = 32

// Epoch reports the directory's current map version.
func (d *Directory) Epoch() Epoch {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// SnapshotMap returns the full map at the current epoch.
func (d *Directory) SnapshotMap() MapSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

func (d *Directory) snapshotLocked() MapSnapshot {
	snap := MapSnapshot{
		Epoch:   d.epoch,
		Groups:  d.groups,
		Leaders: d.leaderListLocked(),
	}
	snap.Root, snap.RootOK = d.rootLocked()
	for _, id := range d.sortedIDs() {
		m := d.members[id]
		snap.Nodes = append(snap.Nodes, NodeState{ID: m.id, FreeBytes: m.freeBytes, Alive: m.alive, Group: m.group, Gver: m.gver})
	}
	return snap
}

func (d *Directory) leaderListLocked() []GroupLeader {
	groups := make([]int, 0, len(d.leaders))
	for g := range d.leaders {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	out := make([]GroupLeader, 0, len(groups))
	for _, g := range groups {
		out = append(out, GroupLeader{Group: g, Leader: d.leaders[g]})
	}
	return out
}

// DeltasSince returns the deltas after epoch `after`, oldest first. ok is
// false when `after` predates the retained log (or exceeds the current
// epoch), in which case the caller must take a snapshot.
func (d *Directory) DeltasSince(after Epoch) ([]Delta, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if after > d.epoch {
		return nil, false
	}
	if after == d.epoch {
		return nil, true
	}
	// The log holds epochs (d.epoch-len(log), d.epoch].
	oldest := d.epoch - Epoch(len(d.deltaLog))
	if after < oldest {
		return nil, false
	}
	start := int(after - oldest)
	out := make([]Delta, len(d.deltaLog)-start)
	copy(out, d.deltaLog[start:])
	return out, true
}

// Sync answers a peer or client catch-up request against this directory,
// identified as self on the fabric: deltas when the requester last synced
// from this same directory and the log still covers it, a snapshot
// otherwise, and an empty response when it is already current.
func (d *Directory) Sync(self NodeID, req SyncRequest) SyncResponse {
	if req.Origin == self {
		if deltas, ok := d.DeltasSince(req.Epoch); ok && len(deltas) <= maxSyncDeltas {
			return SyncResponse{Origin: self, Deltas: deltas}
		}
	}
	snap := d.SnapshotMap()
	return SyncResponse{Origin: self, Snapshot: &snap}
}

// recordLocked turns the events of one mutating call into a Delta, bumps the
// epoch, and appends it to the bounded log. No-op for an empty event list.
func (d *Directory) recordLocked(events []Event) {
	if len(events) == 0 {
		return
	}
	delta := Delta{Groups: d.groups}
	seen := map[NodeID]bool{}
	for _, e := range events {
		switch e.Kind {
		case EventNodeUp, EventNodeDown, EventNodeMoved, EventFreeChanged:
			if seen[e.Node] {
				continue
			}
			seen[e.Node] = true
			if m, ok := d.members[e.Node]; ok {
				delta.Changes = append(delta.Changes, Change{State: NodeState{
					ID: m.id, FreeBytes: m.freeBytes, Alive: m.alive, Group: m.group, Gver: m.gver,
				}})
			}
		case EventNodeLeft:
			if seen[e.Node] {
				continue
			}
			seen[e.Node] = true
			delta.Changes = append(delta.Changes, Change{State: NodeState{ID: e.Node}, Left: true})
		case EventLeaderElected, EventRegrouped:
			delta.LeadersChanged = true
		}
	}
	if delta.LeadersChanged {
		delta.Leaders = d.leaderListLocked()
	}
	delta.Root, delta.RootOK = d.rootLocked()
	d.epoch++
	delta.Epoch = d.epoch
	d.deltaLog = append(d.deltaLog, delta)
	if len(d.deltaLog) > maxDeltaLog {
		d.deltaLog = d.deltaLog[len(d.deltaLog)-maxDeltaLog:]
	}
}

// ClientMap is the compact, epoch-versioned map cache a client (or any
// non-member consumer) holds: who is in the cluster, which group each node
// belongs to, who leads each group, and who the root is. It advances by
// applying deltas pushed or pulled from one origin directory, and resyncs
// from a snapshot when it falls behind the origin's log or switches origins.
// Safe for concurrent use.
type ClientMap struct {
	mu      sync.Mutex
	origin  NodeID
	hasOrig bool
	epoch   Epoch
	groups  int
	nodes   map[NodeID]NodeState
	leaders map[int]NodeID
	root    NodeID
	rootOK  bool
}

// NewClientMap returns an empty cache at epoch 0 with no origin.
func NewClientMap() *ClientMap {
	return &ClientMap{nodes: map[NodeID]NodeState{}, leaders: map[int]NodeID{}}
}

// Epoch reports the cached map version and its origin.
func (c *ClientMap) Epoch() (NodeID, Epoch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.origin, c.epoch
}

// Request builds the sync request that would bring this cache current.
func (c *ClientMap) Request() SyncRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SyncRequest{Origin: c.origin, Epoch: c.epoch}
}

// ApplySnapshot replaces the cache wholesale.
func (c *ClientMap) ApplySnapshot(origin NodeID, snap MapSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.origin, c.hasOrig = origin, true
	c.epoch = snap.Epoch
	c.groups = snap.Groups
	c.nodes = make(map[NodeID]NodeState, len(snap.Nodes))
	for _, s := range snap.Nodes {
		c.nodes[s.ID] = s
	}
	c.leaders = make(map[int]NodeID, len(snap.Leaders))
	for _, gl := range snap.Leaders {
		c.leaders[gl.Group] = gl.Leader
	}
	c.root, c.rootOK = snap.Root, snap.RootOK
}

// ApplyDeltas advances the cache by a contiguous run of deltas from origin.
// It returns ErrMapStale if the run does not start at the cached epoch+1 or
// comes from a different origin — the caller should resync via snapshot.
func (c *ClientMap) ApplyDeltas(origin NodeID, deltas []Delta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.hasOrig || origin != c.origin {
		return ErrMapStale
	}
	for _, delta := range deltas {
		if delta.Epoch != c.epoch+1 {
			return ErrMapStale
		}
		c.applyLocked(delta)
	}
	return nil
}

// Apply folds a full sync response into the cache: deltas when contiguous,
// the snapshot otherwise. An empty response is a no-op (already current).
func (c *ClientMap) Apply(resp SyncResponse) error {
	if resp.Snapshot != nil {
		c.ApplySnapshot(resp.Origin, *resp.Snapshot)
		return nil
	}
	if len(resp.Deltas) == 0 {
		return nil
	}
	return c.ApplyDeltas(resp.Origin, resp.Deltas)
}

func (c *ClientMap) applyLocked(delta Delta) {
	c.epoch = delta.Epoch
	c.groups = delta.Groups
	for _, ch := range delta.Changes {
		if ch.Left {
			delete(c.nodes, ch.State.ID)
			continue
		}
		c.nodes[ch.State.ID] = ch.State
	}
	if delta.LeadersChanged {
		c.leaders = make(map[int]NodeID, len(delta.Leaders))
		for _, gl := range delta.Leaders {
			c.leaders[gl.Group] = gl.Leader
		}
	}
	c.root, c.rootOK = delta.Root, delta.RootOK
}

// Leader reports the cached leader of group g.
func (c *ClientMap) Leader(g int) (NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.leaders[g]
	return id, ok
}

// Root reports the cached root coordinator.
func (c *ClientMap) Root() (NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.root, c.rootOK
}

// Alive reports whether the cache believes node id is up.
func (c *ClientMap) Alive(id NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.nodes[id]
	return ok && s.Alive
}

// Node returns the cached state of node id.
func (c *ClientMap) Node(id NodeID) (NodeState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.nodes[id]
	return s, ok
}

// Synced reports whether the cache has ever been filled from an origin.
func (c *ClientMap) Synced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hasOrig
}

// Groups reports the cached group count.
func (c *ClientMap) Groups() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups
}

// Len reports how many nodes the cache tracks (alive or not).
func (c *ClientMap) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Snapshot renders the cache as a MapSnapshot (nodes sorted by ID), e.g. for
// printing or for seeding another cache.
func (c *ClientMap) Snapshot() MapSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := MapSnapshot{Epoch: c.epoch, Groups: c.groups, Root: c.root, RootOK: c.rootOK}
	ids := make([]NodeID, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		snap.Nodes = append(snap.Nodes, c.nodes[id])
	}
	groups := make([]int, 0, len(c.leaders))
	for g := range c.leaders {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		snap.Leaders = append(snap.Leaders, GroupLeader{Group: g, Leader: c.leaders[g]})
	}
	return snap
}

// String renders a one-line summary for logs.
func (c *ClientMap) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	alive := 0
	for _, s := range c.nodes {
		if s.Alive {
			alive++
		}
	}
	return fmt.Sprintf("map{origin=%d epoch=%d nodes=%d alive=%d groups=%d root=%d}",
		c.origin, c.epoch, len(c.nodes), alive, c.groups, c.root)
}
