package chaos

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/faulty"
	"godm/internal/metrics"
	"godm/internal/pagetable"
	"godm/internal/transport"
)

// invReg counts invariant checks and violations per invariant, so a failed
// seed's dump shows which contract broke and how often. It is process-wide:
// every cluster mounts it at chaos/invariants in its tree.
var invReg = metrics.NewRegistry("chaos/invariants")

// InvariantMetrics exposes the per-invariant check/violation counters.
func InvariantMetrics() *metrics.Registry { return invReg }

// violationHook, when installed, observes every counted violation with its
// invariant name. Like invReg it is process-wide: the chaos cluster points it
// at its flight recorder so the offending op's timeline is flagged the moment
// the invariant trips, before any test teardown can evict it.
var (
	violationHookMu sync.Mutex
	violationHook   func(invariant string)
)

// SetViolationHook installs fn as the process-wide violation observer and
// returns the previous hook so callers can restore it (pass nil to clear).
func SetViolationHook(fn func(invariant string)) (prev func(invariant string)) {
	violationHookMu.Lock()
	defer violationHookMu.Unlock()
	prev, violationHook = violationHook, fn
	return prev
}

func notifyViolation(invariant string) {
	violationHookMu.Lock()
	fn := violationHook
	violationHookMu.Unlock()
	if fn != nil {
		fn(invariant)
	}
}

// countingTB wraps the test handle so every invariant failure is also
// counted in invReg and reported to the violation hook before reaching the
// real reporter.
type countingTB struct {
	testing.TB
	name       string
	violations *metrics.Counter
}

func (c countingTB) Errorf(format string, args ...any) {
	c.violations.Inc()
	notifyViolation(c.name)
	c.TB.Errorf(format, args...)
}

// checked counts one run of the named invariant and returns a reporter that
// counts its violations.
func checked(t testing.TB, name string) countingTB {
	invReg.Counter(name + "_checks").Inc()
	return countingTB{TB: t, name: name, violations: invReg.Counter(name + "_violations")}
}

// RequireWriteAtomicity asserts the §IV.D all-or-nothing contract for one
// replicated write that returned werr: on success, the owner's Get and a
// direct read from every node in the recorded replica set all return exactly
// payload (no torn quorum); on failure, the memory map has no entry — a
// rolled-back write left nothing visible. The injector is paused during the
// checks so verification traffic is not itself faulted and does not advance
// the decision counters.
func RequireWriteAtomicity(ctx context.Context, t testing.TB, inj *faulty.Injector, vs *core.VirtualServer, id pagetable.EntryID, payload []byte, werr error) {
	t.Helper()
	tb := checked(t, "write_atomicity")
	inj.SetEnabled(false)
	defer inj.SetEnabled(true)

	if werr != nil {
		if _, err := vs.Location(id); !errors.Is(err, pagetable.ErrNotFound) {
			tb.Errorf("entry %d: write failed (%v) but memory map still has a location (err=%v): torn write visible", id, werr, err)
		}
		return
	}
	got, loc, err := vs.Get(ctx, id)
	if err != nil {
		tb.Errorf("entry %d: committed write not readable: %v", id, err)
		return
	}
	if !bytes.Equal(got, payload) {
		tb.Errorf("entry %d: Get returned wrong bytes after committed write", id)
	}
	holders := loc.Holders()
	for _, h := range holders {
		data, err := vs.ReadFrom(ctx, id, transport.NodeID(h))
		if err != nil {
			tb.Errorf("entry %d: holder %d unreadable after committed write: %v", id, h, err)
			continue
		}
		if !bytes.Equal(data, payload) {
			tb.Errorf("entry %d: holder %d serves torn/wrong bytes", id, h)
		}
	}
}

// RequireReplicationFactor asserts that id's replica set holds factor
// distinct nodes, none of them lost.
func RequireReplicationFactor(t testing.TB, vs *core.VirtualServer, id pagetable.EntryID, factor int, lost transport.NodeID) {
	t.Helper()
	tb := checked(t, "replication_factor")
	loc, err := vs.Location(id)
	if err != nil {
		tb.Errorf("entry %d: no location: %v", id, err)
		return
	}
	holders := loc.Holders()
	seen := map[pagetable.NodeID]bool{}
	for _, h := range holders {
		if h == pagetable.NodeID(lost) {
			tb.Errorf("entry %d: lost node %d still in replica set %v", id, lost, holders)
		}
		if seen[h] {
			tb.Errorf("entry %d: duplicate holder %d in replica set %v", id, h, holders)
		}
		seen[h] = true
	}
	if len(holders) != factor {
		tb.Errorf("entry %d: replica set %v has %d holders, want %d", id, holders, len(holders), factor)
	}
}

// RequireStripeDurable generalizes the replication-factor invariant to
// erasure-coded shard sets: entry id is durable iff its location records
// k+m distinct donors (none the owner itself), every donor outside the lost
// set actually hosts the shard for its stripe position with the right (k, m)
// coordinates, and at least k such live shards remain — the §IV.D durability
// floor below which the stripe is unrecoverable. Donors listed in lost are
// expected casualties: they may still appear in the set (repair pending) but
// must not be counted toward the k live shards.
func RequireStripeDurable(t testing.TB, nodes []*core.Node, vs *core.VirtualServer, owner transport.NodeID, id pagetable.EntryID, k, m int, lost ...transport.NodeID) {
	t.Helper()
	tb := checked(t, "stripe_durable")
	loc, err := vs.Location(id)
	if err != nil {
		tb.Errorf("entry %d: no location: %v", id, err)
		return
	}
	down := map[transport.NodeID]bool{}
	for _, l := range lost {
		down[l] = true
	}
	holders := loc.Holders()
	if len(holders) != k+m {
		tb.Errorf("entry %d: stripe set %v has %d donors, want k+m=%d", id, holders, len(holders), k+m)
	}
	key := vs.WireKey(id)
	seen := map[pagetable.NodeID]bool{}
	live := 0
	for pos, h := range holders {
		if h == pagetable.NodeID(owner) {
			tb.Errorf("entry %d: owner %d placed its own shard locally in set %v", id, owner, holders)
		}
		if seen[h] {
			tb.Errorf("entry %d: donor %d holds two shards of one stripe (set %v)", id, h, holders)
			continue
		}
		seen[h] = true
		if down[transport.NodeID(h)] {
			continue
		}
		host := nodes[h-1]
		if !host.HostsRemoteKey(owner, key) {
			tb.Errorf("entry %d: donor %d records no shard block", id, h)
			continue
		}
		idx, gotK, gotM, ok := host.ShardInfo(owner, key)
		if !ok || idx != pos || gotK != k || gotM != m {
			tb.Errorf("entry %d: donor %d shard coords = (%d,%d,%d,%v), want (%d,%d,%d,true)",
				id, h, idx, gotK, gotM, ok, pos, k, m)
			continue
		}
		live++
	}
	if live < k {
		tb.Errorf("entry %d: only %d live shards of k=%d survive; stripe unrecoverable", id, live, k)
	}
}

// RequireSingleLeader asserts that, in every listed directory, each group
// with alive members has exactly one leader and that leader is an alive
// member of the group. Directories of crashed nodes should be excluded by
// the caller — a dead process's stale view is not an invariant violation.
func RequireSingleLeader(t testing.TB, dirs []*cluster.Directory) {
	t.Helper()
	tb := checked(t, "single_leader")
	for i, dir := range dirs {
		groups := dir.Groups()
		if groups == 0 {
			groups = 1
		}
		for g := 0; g < groups; g++ {
			members := dir.GroupMembers(g)
			if len(members) == 0 {
				continue
			}
			leader, ok := dir.Leader(g)
			if !ok {
				tb.Errorf("dir %d: group %d has %d alive members but no leader", i, g, len(members))
				continue
			}
			if !dir.Alive(leader) {
				tb.Errorf("dir %d: group %d leader %d is not alive", i, g, leader)
			}
			found := false
			for _, m := range members {
				if m.ID == leader {
					found = true
				}
			}
			if !found {
				tb.Errorf("dir %d: group %d leader %d is not a group member %v", i, g, leader, members)
			}
		}
	}
}

// RequireLeaderAgreement asserts every listed directory names the same
// leader for group g. Call it after equal membership views have propagated
// (a heartbeat round with forced re-election, i.e. §IV.C dynamic
// regrouping); under the stable-incumbent election rule, views may
// legitimately disagree before that.
func RequireLeaderAgreement(t testing.TB, dirs []*cluster.Directory, g int) cluster.NodeID {
	t.Helper()
	tb := checked(t, "leader_agreement")
	var agreed cluster.NodeID
	have := false
	for i, dir := range dirs {
		leader, ok := dir.Leader(g)
		if !ok {
			tb.Errorf("dir %d: no leader for group %d", i, g)
			continue
		}
		if !have {
			agreed, have = leader, true
			continue
		}
		if leader != agreed {
			tb.Errorf("dir %d: leader %d for group %d, others say %d", i, leader, g, agreed)
		}
	}
	return agreed
}

// RequireEpochConvergence asserts the listed directories have converged on
// one cluster map: identical alive sets and group assignments, the same
// leader per group, and the same root. It also bounds client staleness:
// every listed client map must be within maxLag epochs of its origin
// directory's current epoch (a client that has never synced fails). Call it
// after enough heartbeat rounds for deltas to propagate; before that, views
// may legitimately differ.
func (cl *Cluster) RequireEpochConvergence(t testing.TB, dirs []*cluster.Directory, clients []*core.Client, maxLag int) {
	t.Helper()
	tb := checked(t, "epoch_convergence")
	if len(dirs) == 0 {
		tb.Errorf("no directories to compare")
		return
	}
	type view struct {
		alive bool
		group int
	}
	ref := map[cluster.NodeID]view{}
	for _, st := range dirs[0].Snapshot() {
		ref[st.ID] = view{alive: st.Alive, group: st.Group}
	}
	refRoot, refRootOK := dirs[0].RootLeader()
	for i, dir := range dirs[1:] {
		got := map[cluster.NodeID]view{}
		for _, st := range dir.Snapshot() {
			got[st.ID] = view{alive: st.Alive, group: st.Group}
		}
		if len(got) != len(ref) {
			tb.Errorf("dir %d tracks %d members, dir 0 tracks %d", i+1, len(got), len(ref))
		}
		for id, v := range ref {
			if gv, ok := got[id]; !ok || gv != v {
				tb.Errorf("dir %d view of node %d = %+v, dir 0 says %+v", i+1, id, got[id], v)
			}
		}
		root, ok := dir.RootLeader()
		if ok != refRootOK || root != refRoot {
			tb.Errorf("dir %d root = %d (ok=%v), dir 0 says %d (ok=%v)", i+1, root, ok, refRoot, refRootOK)
		}
		for g := 0; g < dir.Groups(); g++ {
			l, lok := dir.Leader(g)
			rl, rlok := dirs[0].Leader(g)
			if lok != rlok || l != rl {
				tb.Errorf("dir %d leader of group %d = %d (ok=%v), dir 0 says %d (ok=%v)", i+1, g, l, lok, rl, rlok)
			}
		}
	}
	for i, c := range clients {
		if !c.Map().Synced() {
			tb.Errorf("client %d never synced its map", i)
			continue
		}
		origin, epoch := c.Map().Epoch()
		if origin < 1 || int(origin) > len(cl.Dirs) {
			tb.Errorf("client %d synced from unknown origin %d", i, origin)
			continue
		}
		if lag := int64(cl.Dirs[origin-1].Epoch()) - int64(epoch); lag < 0 || lag > int64(maxLag) {
			tb.Errorf("client %d epoch lag %d from origin %d exceeds bound %d", i, lag, origin, maxLag)
		}
	}
}

// RequireFailoverWithin drives heartbeat rounds until every surviving
// directory has marked victim down (or gone) and all of them agree on one
// live root and one live leader for every group with members, failing the
// test if convergence takes more than within rounds. It returns the number of
// rounds actually taken — the election latency the scale benchmarks record.
func (cl *Cluster) RequireFailoverWithin(ctx context.Context, t testing.TB, victim transport.NodeID, within int) int {
	t.Helper()
	tb := checked(t, "failover_within")
	converged := func() bool {
		var ref *cluster.Directory
		for i, dir := range cl.Dirs {
			if cl.Nodes[i].ID() == victim {
				continue
			}
			if dir.Alive(cluster.NodeID(victim)) {
				return false
			}
			if ref == nil {
				ref = dir
			}
			root, ok := dir.RootLeader()
			if refRoot, _ := ref.RootLeader(); !ok || root != refRoot || !dir.Alive(root) {
				return false
			}
			for g := 0; g < dir.Groups(); g++ {
				if len(dir.GroupMembers(g)) == 0 {
					continue
				}
				l, lok := dir.Leader(g)
				if refL, _ := ref.Leader(g); !lok || l != refL || !dir.Alive(l) {
					return false
				}
			}
		}
		return true
	}
	for round := 1; round <= within; round++ {
		cl.HeartbeatRound(ctx)
		if converged() {
			return round
		}
	}
	tb.Errorf("survivors did not converge on a post-crash view of node %d within %d rounds", victim, within)
	return within
}

// CallRecorder counts control-plane deliveries per request payload. Wrap a
// node's handler with it and send each logical request with a unique payload:
// if any payload is delivered more than once, the transport's retry machinery
// has broken its at-most-once contract (it retried a request that may have
// already executed).
type CallRecorder struct {
	mu   sync.Mutex
	seen map[string]int
}

// NewCallRecorder returns an empty recorder.
func NewCallRecorder() *CallRecorder {
	return &CallRecorder{seen: map[string]int{}}
}

// Wrap returns a handler that counts each delivery, then invokes h.
func (r *CallRecorder) Wrap(h transport.Handler) transport.Handler {
	return func(ctx context.Context, from transport.NodeID, payload []byte) ([]byte, error) {
		r.mu.Lock()
		r.seen[string(payload)]++
		r.mu.Unlock()
		return h(ctx, from, payload)
	}
}

// Deliveries returns how many times the given request payload arrived.
func (r *CallRecorder) Deliveries(payload string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[payload]
}

// RequireAtMostOnce asserts no recorded request was delivered twice.
func (r *CallRecorder) RequireAtMostOnce(t testing.TB) {
	t.Helper()
	tb := checked(t, "at_most_once")
	r.mu.Lock()
	defer r.mu.Unlock()
	for payload, n := range r.seen {
		if n > 1 {
			tb.Errorf("request %q delivered %d times: at-most-once violated", payload, n)
		}
	}
}

// RequireNoStrandedCopies asserts the memory-safety half of the §IV.D
// rollback contract: after a failed (rolled-back) replicated or batched
// write of key owned by owner, no node still hosts a receive-pool block
// recorded for that (owner, key) pair. A violation means an abort path
// forgot to release a reservation, leaking one donor block per failure.
func RequireNoStrandedCopies(t testing.TB, nodes []*core.Node, owner transport.NodeID, key uint64) {
	t.Helper()
	tb := checked(t, "no_stranded_copies")
	for _, n := range nodes {
		if n.ID() == owner {
			continue
		}
		if n.HostsRemoteKey(owner, key) {
			tb.Errorf("node %d still hosts a block for key %d owned by node %d: rolled-back write stranded a copy", n.ID(), key, owner)
		}
	}
}

// RequireBatchAtomicity extends the write-atomicity invariant to the §IV.H
// batched data plane: one PutAll that returned werr is all-or-nothing. On
// success every entry reads back exactly as written (in one batched read).
// On failure the target hosts no block for any key the batch introduced,
// and keys that existed before the batch still serve their previous value
// (prev maps key to it; keys absent from prev did not exist). The injector
// is paused so verification traffic is unfaulted and does not advance
// decision counters.
func RequireBatchAtomicity(ctx context.Context, t testing.TB, inj *faulty.Injector, client *core.Client, target *core.Node, owner transport.NodeID, entries []core.Entry, prev map[uint64][]byte, werr error) {
	t.Helper()
	tb := checked(t, "batch_atomicity")
	inj.SetEnabled(false)
	defer inj.SetEnabled(true)

	if werr != nil {
		for _, e := range entries {
			old, existed := prev[e.Key]
			if !existed {
				if target.HostsRemoteKey(owner, e.Key) {
					tb.Errorf("key %d: aborted batch (%v) left a block on node %d", e.Key, werr, target.ID())
				}
				continue
			}
			got, err := client.Get(ctx, target.ID(), e.Key)
			if err != nil {
				tb.Errorf("key %d: previous version unreadable after aborted batch: %v", e.Key, err)
				continue
			}
			if !bytes.Equal(got, old) {
				tb.Errorf("key %d: aborted batch clobbered the previous version", e.Key)
			}
		}
		return
	}
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	got, err := client.GetAll(ctx, target.ID(), keys)
	if err != nil {
		tb.Errorf("committed batch unreadable: %v", err)
		return
	}
	for _, e := range entries {
		if !bytes.Equal(got[e.Key], e.Data) {
			tb.Errorf("key %d: committed batch serves wrong bytes", e.Key)
		}
	}
}
