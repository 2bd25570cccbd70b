// Package cluster implements membership, hierarchical sharing groups, and
// leader election for the disaggregated memory system (§IV.C–D of the paper).
//
// Nodes in a cluster are partitioned into sharing groups of similar size;
// disaggregated memory is only shared within a group. Each group elects a
// leader — the alive member with the most available memory, ties broken by
// lowest ID — which coordinates remote-node selection for its group. Among
// the leaders, the same rule picks a root coordinator. Heartbeats flow along
// that tree (members to their leader, leaders to the root and their members)
// rather than all-to-all, so per-node heartbeat load stays O(group size) and
// root load O(groups) as the cluster grows. Failure detection is scoped the
// same way: a node only declares down the peers it directly watches
// (TickWatched), and learns about everyone else by reconciling the
// epoch-versioned map deltas carried on heartbeat responses (see epoch.go).
//
// The directory is driven by explicit Tick calls rather than wall-clock
// timers, which keeps behaviour deterministic: a real daemon calls Tick from
// a timer loop, while the simulator calls it from simulated time.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// NodeID names a node.
type NodeID int

// ErrUnknownNode is returned for operations on nodes never joined.
var ErrUnknownNode = errors.New("cluster: unknown node")

// EventKind labels a membership event.
type EventKind int

// Membership event kinds.
const (
	// EventNodeUp fires when a node joins or recovers.
	EventNodeUp EventKind = iota + 1
	// EventNodeDown fires when a node misses enough heartbeats.
	EventNodeDown
	// EventLeaderElected fires when a group elects a new leader.
	EventLeaderElected
	// EventRegrouped fires when the number of groups changes.
	EventRegrouped
	// EventNodeLeft fires when a node departs for good (decommission).
	EventNodeLeft
	// EventNodeMoved fires when a node is reassigned to another group.
	EventNodeMoved
	// EventFreeChanged fires when a first-hand heartbeat reveals a node's
	// free memory moved by enough to matter (halved, doubled, or crossed
	// zero). Recording it in the delta log is what lets every directory
	// rank election candidates by free memory consistently: under the
	// heartbeat tree only the hub hears a candidate's beats first-hand, so
	// without these deltas the electors would vote on stale hearsay and
	// disagree.
	EventFreeChanged
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case EventNodeUp:
		return "node-up"
	case EventNodeDown:
		return "node-down"
	case EventLeaderElected:
		return "leader-elected"
	case EventRegrouped:
		return "regrouped"
	case EventNodeLeft:
		return "node-left"
	case EventNodeMoved:
		return "node-moved"
	case EventFreeChanged:
		return "free-changed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one membership change.
type Event struct {
	Kind  EventKind
	Node  NodeID // the affected node (leader for EventLeaderElected)
	Group int    // the affected group (-1 when not applicable)
}

type member struct {
	id        NodeID
	freeBytes int64
	lastBeat  int64 // tick of last heartbeat
	alive     bool
	group     int
	// gver is the group-assignment incarnation: bumped by whichever
	// directory deliberately (re)places the node — initial placement or a
	// Regroup move. Gossip only adopts a group claim carrying a strictly
	// newer gver (ties broken by the higher group number), so a stale view
	// cannot revert a rebalance and assignment conflicts converge instead
	// of ping-ponging.
	gver uint64
}

// better reports whether a should lead over b: more free memory first, then
// lower NodeID. The order is total, so two equal-capacity members elect the
// same winner on every node regardless of map iteration or join order.
func better(a, b *member) bool {
	if a.freeBytes != b.freeBytes {
		return a.freeBytes > b.freeBytes
	}
	return a.id < b.id
}

// Config shapes a Directory.
type Config struct {
	// GroupSize is the target number of nodes per sharing group (>= 1).
	GroupSize int
	// HeartbeatTimeout is the number of ticks without a heartbeat after
	// which a node is declared down (>= 1).
	HeartbeatTimeout int64
}

// DefaultConfig matches a 32-node cluster split into groups of 8 with a
// 3-tick failure detector.
func DefaultConfig() Config {
	return Config{GroupSize: 8, HeartbeatTimeout: 3}
}

func (c Config) validate() error {
	if c.GroupSize < 1 {
		return fmt.Errorf("cluster: group size %d < 1", c.GroupSize)
	}
	if c.HeartbeatTimeout < 1 {
		return fmt.Errorf("cluster: heartbeat timeout %d < 1", c.HeartbeatTimeout)
	}
	return nil
}

// Directory tracks membership, groups, and leaders, and versions every
// change with an epoch (epoch.go). It is safe for concurrent use.
type Directory struct {
	mu      sync.Mutex
	cfg     Config
	tick    int64
	members map[NodeID]*member
	leaders map[int]NodeID // group -> leader
	groups  int

	// departed tombstones nodes removed by Leave (directly or via a Left
	// delta): stale "alive" gossip about them is refused, so a
	// decommissioned node cannot be resurrected as a ghost member by a
	// directory that had not yet heard of the departure. A direct Join
	// clears the tombstone (explicit re-admission).
	departed map[NodeID]bool

	epoch    Epoch
	deltaLog []Delta // epochs (epoch-len(deltaLog), epoch], oldest first
}

// NewDirectory returns an empty directory.
func NewDirectory(cfg Config) (*Directory, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Directory{
		cfg:      cfg,
		members:  map[NodeID]*member{},
		leaders:  map[int]NodeID{},
		departed: map[NodeID]bool{},
	}, nil
}

// Join adds (or revives) a node. A new node lands in the emptiest group —
// a fresh group if all are full — and a revived node keeps its old group,
// so joins cost O(churn) map-delta bytes instead of reshuffling everyone
// (explicit Regroup still rebalances globally).
func (d *Directory) Join(id NodeID, freeBytes int64) []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.departed, id) // explicit Join re-admits a decommissioned node
	m, ok := d.members[id]
	if !ok {
		m = &member{id: id, group: -1}
		d.members[id] = m
	}
	wasAlive := m.alive
	significant := wasAlive && freeChangeSignificant(m.freeBytes, freeBytes)
	m.alive = true
	m.freeBytes = freeBytes
	m.lastBeat = d.tick
	var events []Event
	if significant {
		events = append(events, Event{Kind: EventFreeChanged, Node: id, Group: m.group})
	}
	if !wasAlive {
		if m.group < 0 || m.group >= d.groups {
			grew := d.groups
			m.group = d.placeLocked()
			m.gver++
			if d.groups != grew {
				events = append(events, Event{Kind: EventRegrouped, Node: -1, Group: d.groups})
			}
		}
		events = append(events, Event{Kind: EventNodeUp, Node: id, Group: m.group})
	}
	// Within the affected group the paper's rule wins immediately: the
	// member with the most free memory leads (forced, group-scoped — a
	// freeBytes update that overtakes the incumbent takes the group over,
	// and equal-view directories converge on the same winner).
	events = append(events, d.electGroupLocked(true, m.group)...)
	d.recordLocked(events)
	return events
}

// placeLocked picks the group for a new node: the one with the fewest alive
// members (ties to the lowest index), or a brand-new group when every
// existing group is at GroupSize.
func (d *Directory) placeLocked() int {
	if d.groups == 0 {
		d.groups = 1
		return 0
	}
	counts := make([]int, d.groups)
	for _, m := range d.members {
		if m.alive && m.group >= 0 && m.group < d.groups {
			counts[m.group]++
		}
	}
	bestG, bestC := 0, counts[0]
	for g := 1; g < d.groups; g++ {
		if counts[g] < bestC {
			bestG, bestC = g, counts[g]
		}
	}
	if bestC >= d.cfg.GroupSize {
		g := d.groups
		d.groups++
		return g
	}
	return bestG
}

// Leave removes a node for good (graceful decommission, §IV.C dynamic
// grouping): unlike a crash it does not wait out the failure detector, and
// the departure is recorded as a Left change in the map delta so peers and
// clients drop the node rather than mark it down.
func (d *Directory) Leave(id NodeID) []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[id]
	if !ok {
		return nil
	}
	g := m.group
	delete(d.members, id)
	d.departed[id] = true
	if d.leaders[g] == id {
		delete(d.leaders, g)
	}
	events := []Event{{Kind: EventNodeLeft, Node: id, Group: g}}
	events = append(events, d.electLocked(false)...)
	d.recordLocked(events)
	return events
}

// Heartbeat records a node's liveness and advertised free memory.
func (d *Directory) Heartbeat(id NodeID, freeBytes int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	m.lastBeat = d.tick
	significant := freeChangeSignificant(m.freeBytes, freeBytes)
	m.freeBytes = freeBytes
	if !m.alive {
		// Recovery in place: keep the group assignment stable, but record
		// the revival in the delta log so map consumers see it.
		m.alive = true
		d.recordLocked([]Event{{Kind: EventNodeUp, Node: id, Group: m.group}})
	} else if significant {
		d.recordLocked([]Event{{Kind: EventFreeChanged, Node: id, Group: m.group}})
	}
	return nil
}

// freeChangeSignificant reports whether a node's free-byte figure moved
// enough to warrant a map delta: halved, doubled, or crossed zero. The
// hysteresis keeps steady-state heartbeats out of the delta log (preserving
// O(churn) sync traffic) while still propagating the order-of-magnitude
// shifts that election ranking and placement actually care about. Hearsay
// adoptions in Reconcile deliberately never re-record, so a change
// propagates exactly one hop from the directory that heard it first-hand —
// which is the hub every elector syncs from.
func freeChangeSignificant(old, new int64) bool {
	if old == new {
		return false
	}
	if old <= 0 || new <= 0 {
		return true
	}
	return new/old >= 2 || old/new >= 2
}

// Tick advances the failure detector one interval, watching everyone: nodes
// whose last heartbeat is older than the timeout are declared down, and
// affected groups re-elect leaders. This is the form for deployments whose
// nodes share one directory; a node with a directory of its own ticks only
// over its tree targets (TickWatched).
func (d *Directory) Tick() []Event {
	return d.TickWatched(nil)
}

// TickWatched is Tick with scoped failure detection: only nodes in watched
// (nil = everyone) can be declared down. A node hears directly from the
// handful of peers it exchanges beats with and learns of everyone else
// second-hand through Reconcile, so only the watched set is eligible for a
// first-hand down verdict.
func (d *Directory) TickWatched(watched map[NodeID]bool) []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick++
	var events []Event
	for _, id := range d.sortedIDs() {
		m := d.members[id]
		if watched != nil && !watched[id] {
			// Not ours to judge. Hold its detector at "now", so a peer that
			// enters the watch set later — a new leader's members, a new
			// root's leaders — starts with a full timeout of grace rather
			// than an instant verdict on a beat it was never asked to send.
			m.lastBeat = d.tick
			continue
		}
		if m.alive && d.tick-m.lastBeat > d.cfg.HeartbeatTimeout {
			m.alive = false
			events = append(events, Event{Kind: EventNodeDown, Node: m.id, Group: m.group})
		}
	}
	events = append(events, d.electLocked(false)...)
	d.recordLocked(events)
	return events
}

// Reconcile folds peer-reported node states (map-delta changes from a
// heartbeat exchange) into this directory. Left departures are adopted
// unconditionally; group reassignments are adopted only when they carry a
// newer group incarnation (a node even learns its own group move this way
// after a remote Regroup, while a stale view cannot revert one). Liveness
// is only hearsay for nodes the receiver watches first-hand or for itself,
// so alive/down transitions are skipped for the watched set; a non-watched
// node vouched alive gets its failure detector refreshed, which is what
// keeps unwatched lastBeats from going stale in the tree. Returns the local
// events the adoption produced.
func (d *Directory) Reconcile(self NodeID, changes []Change, watched map[NodeID]bool) []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	var events []Event
	for _, ch := range changes {
		id := ch.State.ID
		if ch.Left {
			if id == self {
				continue // our own departure is handled by the caller
			}
			d.departed[id] = true
			if m, ok := d.members[id]; ok {
				delete(d.members, id)
				if d.leaders[m.group] == id {
					delete(d.leaders, m.group)
				}
				events = append(events, Event{Kind: EventNodeLeft, Node: id, Group: m.group})
			}
			continue
		}
		if d.departed[id] {
			continue // stale gossip cannot resurrect a decommissioned node
		}
		firsthand := id == self || (watched != nil && watched[id])
		m, ok := d.members[id]
		if !ok {
			if firsthand {
				continue // don't resurrect a peer we'd know about first-hand
			}
			m = &member{id: id, group: ch.State.Group, gver: ch.State.Gver, freeBytes: ch.State.FreeBytes}
			if m.group >= d.groups {
				d.groups = m.group + 1
			}
			d.members[id] = m
			if ch.State.Alive {
				m.alive = true
				m.lastBeat = d.tick
				events = append(events, Event{Kind: EventNodeUp, Node: id, Group: m.group})
			}
			continue
		}
		if st := ch.State; st.Group != m.group {
			// A group claim wins only with a strictly newer incarnation;
			// equal incarnations (two directories placing the same node
			// concurrently) tie-break to the higher group so every view
			// converges on one assignment instead of flip-flopping.
			if st.Gver > m.gver || (st.Gver == m.gver && st.Group > m.group) {
				m.group, m.gver = st.Group, st.Gver
				if m.group >= d.groups {
					d.groups = m.group + 1
				}
				events = append(events, Event{Kind: EventNodeMoved, Node: id, Group: m.group})
			}
		} else if ch.State.Gver > m.gver {
			m.gver = ch.State.Gver // same group, newer incarnation: keep the freshest
		}
		if firsthand {
			continue // liveness and freeBytes are direct observations
		}
		m.freeBytes = ch.State.FreeBytes
		if ch.State.Alive {
			if !m.alive {
				m.alive = true
				events = append(events, Event{Kind: EventNodeUp, Node: id, Group: m.group})
			}
			m.lastBeat = d.tick
		} else if m.alive {
			m.alive = false
			events = append(events, Event{Kind: EventNodeDown, Node: id, Group: m.group})
		}
	}
	if len(events) > 0 {
		events = append(events, d.electLocked(false)...)
	}
	d.recordLocked(events)
	return events
}

// AdoptLeaders overwrites local leadership with an upstream authority's
// choice (the root's election wins over a member's provisional one). Leaders
// this directory believes dead are not adopted — it will hear the
// replacement soon enough. Unknown groups grow the group count.
func (d *Directory) AdoptLeaders(leaders []GroupLeader, groups int) []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	if groups > d.groups {
		d.groups = groups
	}
	var events []Event
	for _, gl := range leaders {
		m := d.members[gl.Leader]
		if m == nil || !m.alive {
			continue
		}
		if cur, had := d.leaders[gl.Group]; !had || cur != gl.Leader {
			d.leaders[gl.Group] = gl.Leader
			events = append(events, Event{Kind: EventLeaderElected, Node: gl.Leader, Group: gl.Group})
		}
	}
	d.recordLocked(events)
	return events
}

// ApplySync folds a peer's SyncResponse into this directory: snapshot nodes
// (or delta changes) are reconciled, upstream leadership is adopted, and —
// snapshot only — members absent from the snapshot and not directly watched
// are dropped as departed.
func (d *Directory) ApplySync(self NodeID, resp SyncResponse, watched map[NodeID]bool) []Event {
	var events []Event
	if snap := resp.Snapshot; snap != nil {
		changes := make([]Change, 0, len(snap.Nodes))
		present := make(map[NodeID]bool, len(snap.Nodes))
		for _, s := range snap.Nodes {
			present[s.ID] = true
			changes = append(changes, Change{State: s})
		}
		for _, s := range d.Snapshot() {
			if !present[s.ID] && s.ID != self {
				changes = append(changes, Change{State: NodeState{ID: s.ID}, Left: true})
			}
		}
		events = d.Reconcile(self, changes, watched)
		events = append(events, d.AdoptLeaders(snap.Leaders, snap.Groups)...)
		return events
	}
	// Node-state changes apply in order, but leadership is only adopted
	// from the newest delta that carried it: replaying a history of
	// intermediate leader sets would re-record each long-dead flap as
	// fresh local churn and ripple it back out through the tree.
	var (
		lastLeaders []GroupLeader
		lastGroups  int
		haveLeaders bool
	)
	for _, delta := range resp.Deltas {
		events = append(events, d.Reconcile(self, delta.Changes, watched)...)
		if delta.LeadersChanged {
			lastLeaders, lastGroups, haveLeaders = delta.Leaders, delta.Groups, true
		}
	}
	if haveLeaders {
		events = append(events, d.AdoptLeaders(lastLeaders, lastGroups)...)
	}
	return events
}

// TreeTargets returns the peers node self exchanges heartbeats with, sorted
// by ID: members beat their group leader (falling back to the root, then the
// lowest-ID alive node, while leadership is unknown); leaders beat their
// group's members plus the root; the root beats every group leader plus its
// own group. The same set is the node's watch set for TickWatched — these
// are exactly the peers it has first-hand liveness evidence for.
func (d *Directory) TreeTargets(self NodeID) []NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	me, ok := d.members[self]
	if !ok {
		return nil
	}
	root, rootOK := d.rootLocked()
	myLeader, hasLeader := d.leaders[me.group]
	set := map[NodeID]bool{}
	addGroup := func(g int) {
		for id, m := range d.members {
			if m.alive && m.group == g && id != self {
				set[id] = true
			}
		}
	}
	switch {
	case rootOK && root == self:
		for g, id := range d.leaders {
			if m := d.members[id]; m != nil && m.alive && m.group == g && id != self {
				set[id] = true
			}
		}
		addGroup(me.group)
	case hasLeader && myLeader == self:
		addGroup(me.group)
		if rootOK {
			set[root] = true
		}
	default:
		switch {
		case hasLeader && myLeader != self && d.aliveLocked(myLeader):
			set[myLeader] = true
		case rootOK && root != self:
			set[root] = true
		default:
			for _, id := range d.sortedIDs() {
				if m := d.members[id]; m.alive && id != self {
					set[id] = true
					break
				}
			}
		}
	}
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (d *Directory) aliveLocked(id NodeID) bool {
	m, ok := d.members[id]
	return ok && m.alive
}

// Regroup rebuilds group assignments from the current alive set, e.g. after
// a leader observes its group running short of disaggregated memory.
func (d *Directory) Regroup() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.regroupLocked()
}

// regroupLocked partitions alive nodes (sorted by ID) into groups of roughly
// GroupSize and re-elects leaders. This is the global rebalance — it may
// move O(n) nodes, and every move lands in the map delta.
func (d *Directory) regroupLocked() []Event {
	alive := d.aliveSortedLocked()
	nGroups := (len(alive) + d.cfg.GroupSize - 1) / d.cfg.GroupSize
	if nGroups == 0 {
		nGroups = 1
	}
	var events []Event
	for i, m := range alive {
		// Deal nodes round-robin so group sizes differ by at most one.
		g := i % nGroups
		if m.group != g {
			m.group = g
			m.gver++
			events = append(events, Event{Kind: EventNodeMoved, Node: m.id, Group: g})
		}
	}
	changed := d.groups != nGroups
	d.groups = nGroups
	events = append(events, d.electLocked(true)...)
	if changed {
		events = append([]Event{{Kind: EventRegrouped, Node: -1, Group: nGroups}}, events...)
	}
	d.recordLocked(events)
	return events
}

// electLocked ensures every group with alive members has an alive leader,
// chosen by the total order better() — maximum free memory, ties broken by
// lowest ID. When force is false (periodic Tick), a healthy incumbent is
// kept to avoid leadership churn; when true (regroup), the best candidate
// always takes over.
func (d *Directory) electLocked(force bool) []Event {
	return d.electGroupLocked(force, -1)
}

// electGroupLocked is electLocked restricted to one group (only >= 0); the
// vanished-group cleanup runs only on full elections.
func (d *Directory) electGroupLocked(force bool, only int) []Event {
	var events []Event
	best := map[int]*member{}
	for _, id := range d.sortedIDs() {
		m := d.members[id]
		if !m.alive {
			continue
		}
		if cur := best[m.group]; cur == nil || better(m, cur) {
			best[m.group] = m
		}
	}
	groups := make([]int, 0, len(best))
	for g := range best {
		if only >= 0 && g != only {
			continue
		}
		groups = append(groups, g)
	}
	slices.Sort(groups)
	for _, g := range groups {
		winner := best[g]
		prev, had := d.leaders[g]
		prevAlive := had && d.members[prev] != nil && d.members[prev].alive && d.members[prev].group == g
		if prevAlive && !force {
			continue // stable leadership: only re-elect on failure/regroup
		}
		if had && prev == winner.id && prevAlive {
			continue // forced election confirmed the incumbent: no event
		}
		d.leaders[g] = winner.id
		events = append(events, Event{Kind: EventLeaderElected, Node: winner.id, Group: g})
	}
	if only < 0 {
		// Drop leader records for vanished groups.
		for g := range d.leaders {
			if _, ok := best[g]; !ok {
				delete(d.leaders, g)
			}
		}
	}
	return events
}

func (d *Directory) sortedIDs() []NodeID {
	ids := make([]NodeID, 0, len(d.members))
	for id := range d.members {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (d *Directory) aliveSortedLocked() []*member {
	var alive []*member
	for _, id := range d.sortedIDs() {
		if m := d.members[id]; m.alive {
			alive = append(alive, m)
		}
	}
	return alive
}

// Leader returns the current leader of group g.
func (d *Directory) Leader(g int) (NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.leaders[g]
	return id, ok
}

// RootLeader returns the root of the heartbeat tree — §IV.C's top-tier
// coordinator: among the alive group leaders, the best by the election
// order (max free memory, ties to lowest ID). Cross-group concerns —
// dynamic regrouping, group-to-group borrowing — are arbitrated by this
// node. The result is derived from the current leader set, so it changes
// only when group leadership does.
func (d *Directory) RootLeader() (NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rootLocked()
}

func (d *Directory) rootLocked() (NodeID, bool) {
	var best *member
	for g, id := range d.leaders {
		m := d.members[id]
		if m == nil || !m.alive || m.group != g {
			continue
		}
		if best == nil || better(m, best) {
			best = m
		}
	}
	if best == nil {
		return 0, false
	}
	return best.id, true
}

// GroupFreeBytes sums the advertised free memory of group g's alive
// members — the signal a leader uses to request dynamic regrouping when its
// group runs short of disaggregated memory (§IV.C).
func (d *Directory) GroupFreeBytes(g int) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total int64
	for _, m := range d.members {
		if m.alive && m.group == g {
			total += m.freeBytes
		}
	}
	return total
}

// GroupOf returns the group of node id.
func (d *Directory) GroupOf(id NodeID) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return m.group, nil
}

// Groups returns the current number of groups.
func (d *Directory) Groups() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.groups
}

// NodeState is a snapshot of one member.
type NodeState struct {
	ID        NodeID
	FreeBytes int64
	Alive     bool
	Group     int
	// Gver is the group-assignment incarnation the Group claim was made
	// under; Reconcile only adopts claims with a newer one.
	Gver uint64
}

// Alive reports whether node id is currently considered up.
func (d *Directory) Alive(id NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.members[id]
	return ok && m.alive
}

// GroupMembers returns the alive members of group g sorted by ID.
func (d *Directory) GroupMembers(g int) []NodeState {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []NodeState
	for _, id := range d.sortedIDs() {
		m := d.members[id]
		if m.alive && m.group == g {
			out = append(out, NodeState{ID: m.id, FreeBytes: m.freeBytes, Alive: true, Group: g, Gver: m.gver})
		}
	}
	return out
}

// Snapshot returns all members sorted by ID.
func (d *Directory) Snapshot() []NodeState {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NodeState, 0, len(d.members))
	for _, id := range d.sortedIDs() {
		m := d.members[id]
		out = append(out, NodeState{ID: m.id, FreeBytes: m.freeBytes, Alive: m.alive, Group: m.group, Gver: m.gver})
	}
	return out
}
