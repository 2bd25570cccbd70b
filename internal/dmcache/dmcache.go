// Package dmcache implements the paper's second killer application for
// partial memory disaggregation (§III): key-value caching over the idle
// memory of remote nodes. It is a two-tier cache — a bounded local LRU in
// front of cluster-wide disaggregated memory. Entries evicted from the
// local tier are parked in the receive pool of a peer chosen by a §IV.E
// balancing policy, and come back over one-sided reads instead of being
// lost, so a cache sized far beyond one machine's DRAM keeps behaving like
// a cache rather than like a database miss.
//
// The cache runs over any transport.Verbs attachment: the simulated RDMA
// fabric in experiments, real TCP against dmnode daemons in deployments.
package dmcache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"godm/internal/core"
	"godm/internal/metrics"
	"godm/internal/placement"
	"godm/internal/prefetch"
	"godm/internal/trace"
	"godm/internal/transport"
)

// ErrNoPeers is returned when no remote node can hold evicted entries.
var ErrNoPeers = errors.New("dmcache: no peers available")

// Config shapes a Cache.
type Config struct {
	// LocalBytes bounds the local hot tier (values only; keys are assumed
	// comparatively small). Must be positive.
	LocalBytes int64
	// Verbs is the fabric attachment used to reach peers.
	Verbs transport.Verbs
	// Peers are the donor nodes whose receive pools absorb evictions.
	Peers []transport.NodeID
	// Balancer picks the peer for each parked entry; defaults to
	// power-of-two-choices seeded with 1.
	Balancer placement.Balancer
	// StatsEvery refreshes peers' advertised free memory every N remote
	// placements (default 64).
	StatsEvery int
	// WindowSize bounds the per-peer write-combining window used when
	// parking evicted entries (§IV.H window-based batching): up to
	// WindowSize victims bound for the same peer move as one atomic batch.
	// Defaults to 8; 1 disables batching.
	WindowSize int
	// NoCompress disables the transparent compression of parked entries.
	NoCompress bool
	// Metrics mounts the cache's instrumentation; nil means a private
	// registry nothing exports.
	Metrics *metrics.Registry
}

// Stats counts cache activity.
type Stats struct {
	LocalHits   int64
	RemoteHits  int64
	Misses      int64
	Evictions   int64 // local entries parked remotely
	RemoteBytes int64 // bytes currently parked on peers
	Dropped     int64 // evictions lost because every peer was full
	Prefetched  int64 // entries pulled back alongside a requested batch member
	// PrefetchHits counts prefetched entries later served as local hits;
	// PrefetchWaste counts those evicted again untouched. Their ratio steers
	// the adaptive read-ahead depth.
	PrefetchHits  int64
	PrefetchWaste int64
}

type entry struct {
	key   string
	value []byte
}

type remoteRef struct {
	node transport.NodeID
	size int
	// batch links entries spilled in the same write-combining window, so a
	// remote hit can prefetch the rest of its window in one span read.
	// Zero means the entry was parked alone.
	batch uint64
}

// cacheMetrics is the tier instrumentation, bound once at construction.
// Remote-hit latency uses trace.Now so simulated runs stay deterministic.
type cacheMetrics struct {
	localHits        *metrics.Counter
	remoteHits       *metrics.Counter
	misses           *metrics.Counter
	evictions        *metrics.Counter
	dropped          *metrics.Counter
	prefetches       *metrics.Counter
	prefetchHits     *metrics.Counter
	prefetchWasted   *metrics.Counter
	localBytes       *metrics.Gauge
	remoteBytes      *metrics.Gauge
	prefetchDepth    *metrics.Gauge
	remoteGetLatency *metrics.Histogram
}

func newCacheMetrics(reg *metrics.Registry) cacheMetrics {
	return cacheMetrics{
		localHits:        reg.Counter("local_hits"),
		remoteHits:       reg.Counter("remote_hits"),
		misses:           reg.Counter("misses"),
		evictions:        reg.Counter("evictions"),
		dropped:          reg.Counter("dropped"),
		prefetches:       reg.Counter("prefetches"),
		prefetchHits:     reg.Counter("prefetch_hits"),
		prefetchWasted:   reg.Counter("prefetch_wasted"),
		localBytes:       reg.Gauge("local_bytes"),
		remoteBytes:      reg.Gauge("remote_bytes"),
		prefetchDepth:    reg.Gauge("prefetch_depth"),
		remoteGetLatency: reg.Histogram("remote_get_latency"),
	}
}

// Cache is a disaggregated-memory key-value cache. It is safe for
// concurrent use from real goroutines; within a simulation drive it from
// simulation processes.
type Cache struct {
	cfg    Config
	client *core.Client

	met cacheMetrics

	mu         sync.Mutex
	lru        *list.List // front = hottest
	local      map[string]*list.Element
	localBytes int64
	remote     map[string]remoteRef
	freeBytes  map[transport.NodeID]int64
	sincePoll  int
	nextKey    uint64
	keyIDs     map[string]uint64
	nextBatch  uint64
	// batches remembers which keys were spilled together, keyed by the batch
	// id recorded in their remoteRefs.
	batches map[uint64][]string
	// depth adapts how many window siblings ride back on a remote hit:
	// doubled after a streak of prefetched entries proving useful, halved
	// whenever one is evicted again untouched.
	depth *prefetch.Depth
	// prefetchMark flags locally-resident entries that arrived as sibling
	// read-ahead and have not yet been referenced.
	prefetchMark map[string]bool
	stats        Stats
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if cfg.LocalBytes <= 0 {
		return nil, fmt.Errorf("dmcache: local budget %d must be positive", cfg.LocalBytes)
	}
	if cfg.Verbs == nil {
		return nil, errors.New("dmcache: nil verbs attachment")
	}
	if len(cfg.Peers) == 0 {
		return nil, ErrNoPeers
	}
	if cfg.Balancer == nil {
		cfg.Balancer = placement.NewPowerOfTwo(1)
	}
	if cfg.StatsEvery <= 0 {
		cfg.StatsEvery = 64
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 8
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry("dmcache")
	}
	var opts []core.ClientOption
	if !cfg.NoCompress {
		opts = append(opts, core.WithCompression(0))
	}
	// Read-ahead starts optimistic — the whole spill window, the prior fixed
	// behavior — and adapts from feedback: a window has at most WindowSize-1
	// siblings, so that is both the initial depth and the cap.
	sibCap := cfg.WindowSize - 1
	if sibCap < 1 {
		sibCap = 1
	}
	c := &Cache{
		met:          newCacheMetrics(reg),
		cfg:          cfg,
		client:       core.NewClient(cfg.Verbs, opts...),
		lru:          list.New(),
		local:        map[string]*list.Element{},
		remote:       map[string]remoteRef{},
		freeBytes:    map[transport.NodeID]int64{},
		keyIDs:       map[string]uint64{},
		batches:      map[uint64][]string{},
		depth:        prefetch.NewDepth(sibCap, sibCap, 4),
		prefetchMark: map[string]bool{},
	}
	c.met.prefetchDepth.Set(int64(c.depth.Get()))
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// LocalLen reports the number of entries in the hot tier.
func (c *Cache) LocalLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// keyID assigns a stable wire key for a string key.
func (c *Cache) keyID(key string) uint64 {
	if id, ok := c.keyIDs[key]; ok {
		return id
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	// Mix in a counter to keep IDs unique even on hash collisions.
	c.nextKey++
	id := h.Sum64() ^ (c.nextKey << 1)
	c.keyIDs[key] = id
	return id
}

// Put stores a value. The entry lands in the local tier; older entries
// overflow to remote memory as needed.
func (c *Cache) Put(ctx context.Context, key string, value []byte) error {
	ctx, sp := trace.Start(ctx, "cache.put")
	sp.Annotate("bytes", len(value))
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Drop any previous versions.
	if err := c.dropLocked(ctx, key); err != nil {
		return err
	}
	e := &entry{key: key, value: append([]byte(nil), value...)}
	c.local[key] = c.lru.PushFront(e)
	c.localBytes += int64(len(e.value))
	return c.trimLocked(ctx)
}

// Get fetches a value. Remote hits are re-admitted to the local tier.
func (c *Cache) Get(ctx context.Context, key string) ([]byte, bool, error) {
	ctx, sp := trace.Start(ctx, "cache.get")
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.local[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.LocalHits++
		c.met.localHits.Inc()
		if c.prefetchMark[key] {
			// A sibling pulled ahead of demand proved useful: credit the
			// depth controller.
			delete(c.prefetchMark, key)
			c.stats.PrefetchHits++
			c.met.prefetchHits.Inc()
			c.depth.Hit()
			c.met.prefetchDepth.Set(int64(c.depth.Get()))
		}
		sp.Annotate("tier", "local")
		val := el.Value.(*entry).value
		return append([]byte(nil), val...), true, nil
	}
	ref, ok := c.remote[key]
	if !ok {
		c.stats.Misses++
		c.met.misses.Inc()
		sp.Annotate("tier", "miss")
		return nil, false, nil
	}
	start := trace.Now(ctx)
	if ref.batch != 0 {
		if val, ok := c.prefetchBatchLocked(ctx, key, ref, start, sp); ok {
			return val, true, nil
		}
	}
	data, err := c.client.Get(ctx, ref.node, c.keyID(key))
	if err != nil {
		// The peer evicted or crashed: a miss, not an error (cache
		// semantics — the caller refills from the source of truth).
		c.forgetRemoteLocked(key, ref)
		c.stats.Misses++
		c.met.misses.Inc()
		sp.Annotate("tier", "miss")
		return nil, false, nil
	}
	_ = c.client.Delete(ctx, ref.node, c.keyID(key))
	c.forgetRemoteLocked(key, ref)
	c.stats.RemoteBytes -= int64(ref.size)
	c.stats.RemoteHits++
	c.met.remoteHits.Inc()
	c.met.remoteGetLatency.Observe(trace.Now(ctx) - start)
	sp.Annotate("tier", "remote")
	e := &entry{key: key, value: data}
	c.local[key] = c.lru.PushFront(e)
	c.localBytes += int64(len(data))
	if err := c.trimLocked(ctx); err != nil {
		return nil, false, err
	}
	return append([]byte(nil), data...), true, nil
}

// prefetchBatchLocked serves a remote hit by pulling back the requested
// entry together with up to depth of its spill-window siblings — the
// entries most likely to be wanted next (they cooled together) — in
// span-coalesced batch reads (§IV.H read-ahead). The sibling count adapts:
// prefetched entries that get referenced locally grow it back toward the
// window size, ones evicted untouched halve it, so a workload whose reuse
// pattern ignores spill adjacency degrades to single-entry fetches instead
// of churning the local tier. Only siblings that still rest on the same
// peer and fit the local budget WITHOUT evicting anything ride along; when
// the budget is too tight the requested entry alone falls back to the
// single-entry path (ok=false).
func (c *Cache) prefetchBatchLocked(ctx context.Context, key string, ref remoteRef, start time.Duration, sp *trace.Span) ([]byte, bool) {
	members := []string{key}
	total := int64(ref.size)
	limit := c.depth.Get()
	for _, k := range c.batches[ref.batch] {
		if len(members)-1 >= limit {
			break
		}
		if k == key {
			continue
		}
		r, ok := c.remote[k]
		if !ok || r.batch != ref.batch || r.node != ref.node {
			continue
		}
		if c.localBytes+total+int64(r.size) > c.cfg.LocalBytes {
			continue
		}
		members = append(members, k)
		total += int64(r.size)
	}
	if len(members) == 1 || c.localBytes+total > c.cfg.LocalBytes {
		return nil, false
	}
	ids := make([]uint64, len(members))
	for i, k := range members {
		ids[i] = c.keyID(k)
	}
	got, err := c.client.GetAll(ctx, ref.node, ids)
	if err != nil {
		return nil, false // single-entry path retries and classifies
	}
	// Migrate the window home: the remote copies are stale now.
	_ = c.client.DeleteAll(ctx, ref.node, ids)
	// Admit siblings first so the requested key ends up hottest.
	var requested []byte
	for i := len(members) - 1; i >= 0; i-- {
		k := members[i]
		data := got[ids[i]]
		r := c.remote[k]
		c.forgetRemoteLocked(k, r)
		c.stats.RemoteBytes -= int64(r.size)
		e := &entry{key: k, value: data}
		c.local[k] = c.lru.PushFront(e)
		c.localBytes += int64(len(data))
		if k == key {
			requested = data
		} else {
			c.prefetchMark[k] = true
		}
	}
	c.stats.RemoteHits++
	c.met.remoteHits.Inc()
	c.stats.Prefetched += int64(len(members) - 1)
	c.met.prefetches.Add(int64(len(members) - 1))
	c.met.remoteGetLatency.Observe(trace.Now(ctx) - start)
	c.met.localBytes.Set(c.localBytes)
	c.met.remoteBytes.Set(c.stats.RemoteBytes)
	sp.Annotate("tier", "remote")
	sp.Annotate("prefetched", len(members)-1)
	return append([]byte(nil), requested...), true
}

// forgetRemoteLocked drops the bookkeeping for a parked entry: its remote
// ref and its membership in any spill window.
func (c *Cache) forgetRemoteLocked(key string, ref remoteRef) {
	delete(c.remote, key)
	if ref.batch == 0 {
		return
	}
	keys := c.batches[ref.batch]
	for i, k := range keys {
		if k == key {
			keys = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(keys) == 0 {
		delete(c.batches, ref.batch)
	} else {
		c.batches[ref.batch] = keys
	}
}

// Delete removes a key from both tiers.
func (c *Cache) Delete(ctx context.Context, key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropLocked(ctx, key)
}

func (c *Cache) dropLocked(ctx context.Context, key string) error {
	if el, ok := c.local[key]; ok {
		c.localBytes -= int64(len(el.Value.(*entry).value))
		c.lru.Remove(el)
		delete(c.local, key)
		// An explicit delete is not the prefetcher's fault: unmark silently.
		delete(c.prefetchMark, key)
	}
	if ref, ok := c.remote[key]; ok {
		c.forgetRemoteLocked(key, ref)
		c.stats.RemoteBytes -= int64(ref.size)
		return c.client.Delete(ctx, ref.node, c.keyID(key))
	}
	return nil
}

// trimLocked parks LRU entries remotely until the local tier fits. Victims
// are gathered first, grouped by their target peer, and spilled in windows
// of up to cfg.WindowSize entries (§IV.H write combining): each window is
// one put round trip instead of one per entry, and its members stay linked
// for batch read-ahead on the way back.
func (c *Cache) trimLocked(ctx context.Context) error {
	var victims []*entry
	for c.localBytes > c.cfg.LocalBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.local, e.key)
		c.localBytes -= int64(len(e.value))
		if c.prefetchMark[e.key] {
			// A prefetched sibling cycled out untouched: the read-ahead was
			// wasted work, so the depth controller backs off.
			delete(c.prefetchMark, e.key)
			c.stats.PrefetchWaste++
			c.met.prefetchWasted.Inc()
			c.depth.Waste()
			c.met.prefetchDepth.Set(int64(c.depth.Get()))
		}
		victims = append(victims, e)
	}
	groups := map[transport.NodeID][]*entry{}
	var order []transport.NodeID
	for _, e := range victims {
		node, err := c.pickPeer(ctx, len(e.value))
		if err != nil {
			c.stats.Dropped++
			c.met.dropped.Inc()
			continue // cache semantics: losing an entry is legal
		}
		if _, ok := groups[node]; !ok {
			order = append(order, node)
		}
		groups[node] = append(groups[node], e)
	}
	for _, node := range order {
		g := groups[node]
		for len(g) > 0 {
			n := c.cfg.WindowSize
			if n > len(g) {
				n = len(g)
			}
			c.spillWindowLocked(ctx, node, g[:n])
			g = g[n:]
		}
	}
	c.met.localBytes.Set(c.localBytes)
	c.met.remoteBytes.Set(c.stats.RemoteBytes)
	return nil
}

// spillWindowLocked parks one window of victims on node — as an atomic
// batch when the window has more than one entry, falling back to per-entry
// puts when the batch fails as a unit (so one poisoned entry cannot drop
// its whole window).
func (c *Cache) spillWindowLocked(ctx context.Context, node transport.NodeID, window []*entry) {
	if len(window) > 1 {
		batch := make([]core.Entry, len(window))
		for i, e := range window {
			batch[i] = core.Entry{Key: c.keyID(e.key), Data: e.value}
		}
		if err := c.client.PutAll(ctx, node, batch); err == nil {
			c.nextBatch++
			id := c.nextBatch
			keys := make([]string, len(window))
			for i, e := range window {
				keys[i] = e.key
				c.remote[e.key] = remoteRef{node: node, size: len(e.value), batch: id}
				c.stats.RemoteBytes += int64(len(e.value))
				c.stats.Evictions++
				c.met.evictions.Inc()
			}
			c.batches[id] = keys
			return
		}
	}
	for _, e := range window {
		if err := c.client.Put(ctx, node, c.keyID(e.key), e.value); err != nil {
			c.stats.Dropped++
			c.met.dropped.Inc()
			continue
		}
		c.remote[e.key] = remoteRef{node: node, size: len(e.value)}
		c.stats.RemoteBytes += int64(len(e.value))
		c.stats.Evictions++
		c.met.evictions.Inc()
	}
}

// pickPeer chooses a donor by advertised free memory, polling stats lazily.
func (c *Cache) pickPeer(ctx context.Context, need int) (transport.NodeID, error) {
	if c.sincePoll == 0 || len(c.freeBytes) == 0 {
		for _, p := range c.cfg.Peers {
			free, err := c.client.Stats(ctx, p)
			if err != nil {
				free = 0 // unreachable peers advertise nothing
			}
			c.freeBytes[p] = free
		}
	}
	c.sincePoll = (c.sincePoll + 1) % c.cfg.StatsEvery
	cands := make([]placement.Candidate, 0, len(c.cfg.Peers))
	for _, p := range c.cfg.Peers {
		if c.freeBytes[p] >= int64(need) {
			cands = append(cands, placement.Candidate{Node: placement.NodeID(p), FreeBytes: c.freeBytes[p]})
		}
	}
	if len(cands) == 0 {
		return 0, ErrNoPeers
	}
	picked, err := c.cfg.Balancer.Pick(cands, 1)
	if err != nil {
		return 0, err
	}
	node := transport.NodeID(picked[0])
	c.freeBytes[node] -= int64(need)
	return node, nil
}
