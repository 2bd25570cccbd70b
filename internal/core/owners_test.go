package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"godm/internal/des"
	"godm/internal/replication"
	"godm/internal/slab"
	"godm/internal/transport"
)

// addOwner is ownerIndex.add for one block.
func (n *Node) addOwner(h slab.Handle, ref ownerRef, shard replication.Shard) {
	n.owners.mu.Lock()
	defer n.owners.mu.Unlock()
	n.owners.add(h, ref, shard)
}

// takeOwner is ownerIndex.take for one block.
func (n *Node) takeOwner(h slab.Handle, want *ownerRef) (ownerRef, bool) {
	n.owners.mu.Lock()
	defer n.owners.mu.Unlock()
	return n.owners.take(h, want)
}

// The owner-index tests drive one donor through its handlers with requests
// from two owners that number their keys alike, and compare the index with
// the obvious model of it: a map from block to who parked it, and a map from
// who to their blocks.

const (
	idxSlab  = 64 << 10
	idxPool  = 32 * idxSlab
	idxKeys  = 192 // per owner
	idxOwner = transport.NodeID(9)
)

var idxClasses = [...]int32{512, 1024, 2048, 4096}

func indexConfig(id transport.NodeID) Config {
	return Config{
		ID: id, SharedPoolBytes: idxSlab, SendPoolBytes: idxSlab, RecvPoolBytes: idxPool,
		SlabSize: idxSlab, PoolShards: 2, ReplicationFactor: 1,
	}
}

// modelBlock is one parked block as the model knows it, by region offset.
type modelBlock struct {
	ref   ownerRef
	shard replication.Shard
}

type indexModel struct {
	blocks map[int64]modelBlock
	keys   map[ownerRef]map[int64]bool
	gone   []block // released or displaced blocks, for stale and replayed releases
}

func newIndexModel() *indexModel {
	return &indexModel{blocks: map[int64]modelBlock{}, keys: map[ownerRef]map[int64]bool{}}
}

func (m *indexModel) add(off int64, b modelBlock) {
	m.blocks[off] = b
	if m.keys[b.ref] == nil {
		m.keys[b.ref] = map[int64]bool{}
	}
	m.keys[b.ref][off] = true
}

func (m *indexModel) remove(off int64) {
	b := m.blocks[off]
	delete(m.blocks, off)
	if delete(m.keys[b.ref], off); len(m.keys[b.ref]) == 0 {
		delete(m.keys, b.ref)
	}
	m.gone = append(m.gone, block{node: b.ref.owner, key: b.ref.key, offset: off})
}

// release is the rule a release entry follows: the live block covering off
// goes if it is from's under key, and nothing else does.
func (m *indexModel) release(n *Node, from transport.NodeID, key uint64, off int64) {
	h, err := n.recv.HandleAt(off)
	if err != nil {
		return
	}
	start, _ := n.recv.GlobalOffset(h)
	if b, ok := m.blocks[start]; ok && b.ref == (ownerRef{owner: from, key: key}) {
		m.remove(start)
	}
}

// reconcile forgets the blocks the pool dropped under an eviction or a
// harvest: which slabs go is the pool's decision, not the index's.
func (m *indexModel) reconcile(n *Node) {
	for off := range m.blocks {
		if _, err := n.recv.HandleAt(off); err != nil {
			m.remove(off)
		}
	}
}

// anyBlock picks one of the model's blocks, nil if it has none.
func (m *indexModel) anyBlock(rng *rand.Rand) *block {
	if len(m.blocks) == 0 {
		return nil
	}
	i := rng.Intn(len(m.blocks))
	for off, b := range m.blocks {
		if i--; i < 0 {
			return &block{node: b.ref.owner, key: b.ref.key, offset: off}
		}
	}
	return nil
}

// checkIndex compares every view of the index with the model and checks the
// index's own invariants.
func checkIndex(t *testing.T, n *Node, m *indexModel, step int) {
	t.Helper()
	for off, b := range m.blocks {
		if _, ref, ok := n.ownerAt(off); !ok || ref != b.ref {
			t.Fatalf("step %d: ownerAt(%d) = %+v, %v; model has %+v", step, off, ref, ok, b.ref)
		}
	}
	for _, g := range m.gone[max(0, len(m.gone)-64):] {
		if h, err := n.recv.HandleAt(g.offset); err == nil {
			if start, _ := n.recv.GlobalOffset(h); m.blocks[start] != (modelBlock{}) {
				continue // re-issued, perhaps as part of a larger block
			}
		}
		if _, ref, ok := n.ownerAt(g.offset); ok {
			t.Fatalf("step %d: ownerAt(%d) = %+v for a block the model has released", step, g.offset, ref)
		}
	}
	for o := idxOwner; o < idxOwner+2; o++ {
		for key := uint64(0); key < idxKeys; key++ {
			ref := ownerRef{owner: o, key: key}
			var shard replication.Shard
			for off := range m.keys[ref] {
				if s := m.blocks[off].shard; s.Tagged() {
					shard = s
				}
			}
			blocks, got := n.lookupKey(o, key)
			if blocks != len(m.keys[ref]) || got != shard {
				t.Fatalf("step %d: lookupKey(%+v) = %d blocks, shard %+v; model has %d, %+v", step, ref, blocks, got, len(m.keys[ref]), shard)
			}
			if n.HostsRemoteKey(o, key) != (blocks > 0) {
				t.Fatalf("step %d: HostsRemoteKey(%+v) disagrees with %d blocks", step, ref, blocks)
			}
			if idx, k, mm, ok := n.ShardInfo(o, key); ok != shard.Tagged() || idx != int(shard.Idx) || k != int(shard.K) || mm != int(shard.M) {
				t.Fatalf("step %d: ShardInfo(%+v) = %d/%d.%d %v, model has %+v", step, ref, idx, k, mm, ok, shard)
			}
		}
	}
	hosted := n.hostedBlocks()
	if len(hosted) != len(m.blocks) {
		t.Fatalf("step %d: hostedBlocks lists %d blocks, model has %d", step, len(hosted), len(m.blocks))
	}
	for i, b := range hosted {
		off, err := n.recv.GlobalOffset(b.h)
		if err != nil {
			t.Fatalf("step %d: hostedBlocks lists %+v: %v", step, b.h, err)
		}
		if want := m.blocks[off]; want.ref != b.ref || want.shard != b.shard {
			t.Fatalf("step %d: hostedBlocks has %+v at %d, model has %+v", step, b, off, want)
		}
		if i > 0 {
			if p := hosted[i-1].h; p.SlabID > b.h.SlabID || (p.SlabID == b.h.SlabID && p.Offset >= b.h.Offset) {
				t.Fatalf("step %d: hostedBlocks out of (slab, block) order: %+v before %+v", step, p, b.h)
			}
		}
	}
	checkChains(t, n, len(m.blocks), step)
}

// checkChains checks that every chain holds exactly the live records of its
// bucket, each once, and that the tables' live counts add up to want.
func checkChains(t *testing.T, n *Node, want, step int) {
	t.Helper()
	ix := n.owners
	ix.mu.Lock()
	defer ix.mu.Unlock()
	chained := map[*ownerRec]bool{}
	for i := range ix.buckets {
		for l := ix.buckets[i]; l != 0; {
			_, r := ix.rec(l)
			if l = r.next; !r.live || ix.bucket(r.ref) != &ix.buckets[i] {
				t.Fatalf("step %d: bucket %d chains %+v, which is dead or another bucket's", step, i, *r)
			}
			if chained[r] {
				t.Fatalf("step %d: bucket %d chains %+v twice", step, i, *r)
			}
			chained[r] = true
		}
	}
	live := 0
	for id, t2 := range ix.tables {
		count := 0
		for i := range t2.recs {
			if r := &t2.recs[i]; r.live {
				count++
				if !chained[r] {
					t.Fatalf("step %d: slab %d block %d is live and on no chain", step, id, i)
				}
			}
		}
		if count != t2.live || t2.id != id {
			t.Fatalf("step %d: table %d (id %d) counts %d live records, has %d", step, id, t2.id, t2.live, count)
		}
		live += count
	}
	if live != want || len(chained) != want {
		t.Fatalf("step %d: %d live records, %d chained, want %d", step, live, len(chained), want)
	}
}

// idxPut builds a put of count entries from owner: consecutive keys from a
// random start, one class, each displacing the owner's block under its key —
// when it has exactly one and displace is set.
func idxPut(rng *rand.Rand, m *indexModel, owner transport.NodeID, count int, shard replication.Shard, displace bool) putParts {
	p := putParts{Shard: shard}
	class := idxClasses[rng.Intn(len(idxClasses))]
	start := rng.Intn(idxKeys)
	for i := 0; i < count; i++ {
		key := uint64((start + i) % idxKeys)
		p.Entries = append(p.Entries, putEntry{Key: key, Class: class, Len: 1})
		p.Payload = append(p.Payload, byte(key))
		if offs := m.keys[ownerRef{owner: owner, key: key}]; displace && len(offs) == 1 {
			for off := range offs {
				p.Releases = append(p.Releases, block{key: key, offset: off})
			}
		}
	}
	return p
}

// applyPut sends p from owner and, if the donor took it, folds it into the
// model. It reports whether it was taken.
func applyPut(t *testing.T, n *Node, m *indexModel, owner transport.NodeID, p putParts) bool {
	t.Helper()
	resp, err := n.handleCall(context.Background(), owner, putMessage(p))
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] == stNoSpace {
		return false
	}
	offs, err := decodePutResp(resp, len(p.Entries))
	if err != nil {
		t.Fatalf("put of %d entries: %v", len(p.Entries), err)
	}
	for _, r := range p.Releases {
		if b, ok := m.blocks[r.offset]; ok && b.ref == (ownerRef{owner: owner, key: r.key}) {
			m.remove(r.offset)
		}
	}
	for i, e := range p.Entries {
		if _, held := m.blocks[offs.offset(i)]; held {
			t.Fatalf("put parked key %d at %d, which the model says is taken", e.Key, offs.offset(i))
		}
		m.add(offs.offset(i), modelBlock{ref: ownerRef{owner: owner, key: e.Key}, shard: p.Shard})
	}
	return true
}

// idxRelease builds a release of count entries: blocks of the sender and of
// the other owner, blocks already gone (stale, replayed), and repeats.
func idxRelease(rng *rand.Rand, m *indexModel, count int) []block {
	var out []block
	for len(out) < count {
		switch k := rng.Intn(4); {
		case k == 0 && len(m.gone) > 0:
			g := m.gone[rng.Intn(len(m.gone))]
			out = append(out, block{key: g.key, offset: g.offset})
		case k == 1 && len(out) > 0:
			out = append(out, out[rng.Intn(len(out))]) // named twice in one request
		default:
			b := m.anyBlock(rng)
			if b == nil {
				return out
			}
			out = append(out, block{key: b.key, offset: b.offset}) // right, or wrong owner
		}
	}
	return out
}

func applyRelease(t *testing.T, n *Node, m *indexModel, owner transport.NodeID, blocks []block) {
	t.Helper()
	if len(blocks) == 0 {
		return
	}
	for _, b := range blocks {
		m.release(n, owner, b.key, b.offset)
	}
	resp, err := n.handleCall(context.Background(), owner, encodeReleaseReq(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkOKResp(resp); err != nil {
		t.Fatalf("release of %d entries: %v", len(blocks), err)
	}
}

// TestOwnerIndexMatchesModel: a few thousand random puts (1 and 64 entries,
// shards and not, two owners numbering their keys alike), releases (right,
// stale, replayed, the wrong owner's), evictions and harvests, with every view
// of the index compared against the model after each.
func TestOwnerIndexMatchesModel(t *testing.T) {
	tc := newTestCluster(t, 1, indexConfig)
	n := tc.nodes[0]
	m := newIndexModel()
	rng := rand.New(rand.NewSource(24))
	steps := 2000
	if testing.Short() {
		steps = 400
	}
	for step := 0; step < steps; step++ {
		owner := idxOwner + transport.NodeID(rng.Intn(2))
		shrunk := false
		switch k := rng.Intn(20); {
		case k < 5:
			applyPut(t, n, m, owner, idxPut(rng, m, owner, 1, replication.Shard{}, rng.Intn(4) > 0))
		case k < 7:
			// A shard put is refused while a sibling beyond what it displaces
			// lives here, and only then, short of a full pool.
			put := idxPut(rng, m, owner, 1, replication.Shard{Idx: uint8(rng.Intn(6)), K: 4, M: 2}, rng.Intn(4) > 0)
			sibling := len(m.keys[ownerRef{owner: owner, key: put.Entries[0].Key}]) > len(put.Releases)
			free := n.recv.FreeBytes()
			if took := applyPut(t, n, m, owner, put); took == sibling && (took || free >= idxSlab) {
				t.Fatalf("step %d: shard put taken = %v with sibling = %v", step, took, sibling)
			}
		case k < 11:
			applyPut(t, n, m, owner, idxPut(rng, m, owner, 64, replication.Shard{}, rng.Intn(4) > 0))
		case k < 15:
			applyRelease(t, n, m, owner, idxRelease(rng, m, 1))
		case k < 18:
			applyRelease(t, n, m, owner, idxRelease(rng, m, 64))
		default:
			// The notices to the blocks' owners ride the simulated fabric, and
			// reach nobody. With no peer to migrate to, what a harvest cannot
			// shrink away it evicts.
			tc.run(t, func(ctx context.Context, _ *des.Proc) {
				if k == 18 {
					if _, err := n.EvictRecvSlabs(ctx, int64(1+rng.Intn(3))*idxSlab); err != nil {
						t.Errorf("step %d: evict: %v", step, err)
					}
				} else {
					_, _, _ = n.Harvest(ctx, int64(1+rng.Intn(8))*idxSlab)
				}
			})
			shrunk = true
		}
		if shrunk {
			m.reconcile(n)
			n.owners.mu.Lock()
			tables := len(n.owners.tables)
			n.owners.mu.Unlock()
			st := n.recv.Stats()
			if tables > st.Slabs {
				t.Fatalf("step %d: %d owner tables for %d registered slabs after a shrink", step, tables, st.Slabs)
			}
			n.recv.Grow(idxPool - st.MaxBytes)
		}
		checkIndex(t, n, m, step)
		if st := n.recv.Stats(); st.LiveBlocks != len(m.blocks) {
			t.Fatalf("step %d: pool has %d live blocks, model %d", step, st.LiveBlocks, len(m.blocks))
		}
	}
	if len(m.gone) < steps {
		t.Fatalf("only %d blocks ever left the model in %d steps", len(m.gone), steps)
	}
}

// TestOwnerIndexConcurrent runs the put and release mix from four goroutines —
// two per owner, so requests about one key number race — beside shrinks and
// drain walks, for the race detector and the index's invariants. Each worker
// releases only what it parked (and stale and foreign offsets), so at the end
// every block still parked is in some worker's hands, and the donor's live
// blocks are exactly the index's live records. Evictions stay out: a slab
// evicted between a put's allocation and its record is the pool's race, not
// the index's.
func TestOwnerIndexConcurrent(t *testing.T) {
	tc := newTestCluster(t, 1, indexConfig)
	n := tc.nodes[0]
	const workers, rounds = 4, 400
	var wg sync.WaitGroup
	held := make([][]block, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			owner := idxOwner + transport.NodeID(w%2)
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				switch k := rng.Intn(10); {
				case k < 5:
					count := 1 + 63*rng.Intn(2)
					put := idxPut(rng, newIndexModel(), owner, count, replication.Shard{}, false)
					resp, err := n.handleCall(ctx, owner, putMessage(put))
					if err != nil || (resp[0] != stOK && resp[0] != stNoSpace) {
						t.Errorf("worker %d: put: %v %v", w, resp, err)
						return
					}
					if resp[0] == stOK {
						for j, e := range put.Entries {
							held[w] = append(held[w], block{key: e.Key, offset: putResp(resp).offset(j)})
						}
					}
				case k < 8 && len(held[w]) > 0:
					cut := len(held[w]) - min(len(held[w]), 1+rng.Intn(64))
					rel := append([]block(nil), held[w][cut:]...)
					rel = append(rel, rel[0], block{key: rel[0].key + 1, offset: rel[0].offset})
					resp, err := n.handleCall(ctx, owner, encodeReleaseReq(rel))
					if _, rerr := checkOKResp(resp); err != nil || rerr != nil {
						t.Errorf("worker %d: release: %v %v", w, rerr, err)
						return
					}
					held[w] = held[w][:cut]
				case k < 9:
					released := n.recv.ShrinkEmpty(idxSlab)
					n.pruneOwners()
					n.recv.Grow(released)
				default:
					// The drain walk, and what no other worker can change: the
					// blocks this one holds.
					walk := n.hostedBlocks()
					for j := 1; j < len(walk); j++ {
						if p, h := walk[j-1].h, walk[j].h; p.SlabID > h.SlabID || (p.SlabID == h.SlabID && p.Offset >= h.Offset) {
							t.Errorf("worker %d: hostedBlocks out of order: %+v before %+v", w, p, h)
							return
						}
					}
					for _, b := range held[w] {
						if _, ref, ok := n.ownerAt(b.offset); !ok || ref != (ownerRef{owner: owner, key: b.key}) || !n.HostsRemoteKey(owner, b.key) {
							t.Errorf("worker %d holds key %d at %d, the index has %+v, %v", w, b.key, b.offset, ref, ok)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for w, blocks := range held {
		owner := idxOwner + transport.NodeID(w%2)
		for _, b := range blocks {
			if _, ref, ok := n.ownerAt(b.offset); !ok || ref != (ownerRef{owner: owner, key: b.key}) {
				t.Fatalf("worker %d still holds key %d at %d, the index has %+v, %v", w, b.key, b.offset, ref, ok)
			}
		}
		total += len(blocks)
	}
	checkChains(t, n, total, rounds)
	if st := n.recv.Stats(); st.LiveBlocks != total {
		t.Fatalf("donor has %d live blocks, the index %d live records", st.LiveBlocks, total)
	}
}
