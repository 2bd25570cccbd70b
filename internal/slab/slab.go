// Package slab implements the registered-memory slab allocator that backs
// every disaggregated memory pool in the system: the node-coordinated shared
// memory pool and the cluster-wide RDMA send/receive buffer pools (§IV.B,
// §IV.F of the paper).
//
// Memory is carved into fixed-size slabs. Each slab is dedicated to one size
// class (512 B … 4 KB compressed-page classes) and subdivided into blocks.
// Slab creation models RDMA memory-region registration; slab eviction models
// preemptive deregistration when a node reclaims donated memory, returning
// the still-live blocks so the caller can relocate them (to another node or
// to disk) before the region disappears.
//
// Which blocks of a slab are free is one bitmap and a count, and allocation is
// address-ordered: the lowest free block — for AllocRun the lowest run of n
// free blocks — of the lowest-id slab that has one. What is handed out is
// therefore a function of which blocks are free, never of the order they were
// freed in: a window of blocks taken by one AllocRun is one contiguous run,
// and once it is freed, in any order and interleaved with any other request,
// the next window gets a contiguous run again. Only a pool too full and too
// fragmented to hold such a run anywhere in the home shard hands out fragments.
//
// A pool is internally sharded (WithShards): each shard owns a disjoint set
// of slabs under its own mutex, so operations on blocks in different shards
// never contend. The shard for an allocation is striped by hashing the size
// class together with the caller's hint (typically the entry key), while the
// pool-wide byte budget is enforced with a lock-free reservation, so the
// capacity behaviour — an allocation fails only when no shard holds a free
// block of the class and the budget cannot register another slab — is
// identical to a single-shard pool.
package slab

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Sentinel errors.
var (
	// ErrNoSpace is returned when the pool cannot allocate another block and
	// cannot register another slab within its byte budget.
	ErrNoSpace = errors.New("slab: pool exhausted")
	// ErrBadHandle is returned for operations on freed or foreign handles.
	ErrBadHandle = errors.New("slab: invalid handle")
	// ErrEmpty is returned by EvictLRU when no slab exists.
	ErrEmpty = errors.New("slab: no slabs to evict")
)

// DefaultSlabSize is 1 MiB, matching common RDMA registration granularity.
const DefaultSlabSize = 1 << 20

// maxShards bounds WithShards; beyond this the per-shard fixed cost
// outweighs any contention win.
const maxShards = 256

// Handle identifies one allocated block.
type Handle struct {
	SlabID int
	Offset int // byte offset within the slab
	Class  int // block size in bytes
}

// Run is N consecutive blocks of one slab, lowest first: block i is
// Handle{First.SlabID, First.Offset + i*First.Class, First.Class}. In a pool
// over a backing buffer Region is First's byte offset in that buffer — what
// GlobalOffset would report — so block i sits at Region + i*First.Class.
type Run struct {
	First  Handle
	N      int
	Region int64
}

// Pop removes the run's lowest block and returns its handle and region
// offset.
func (r *Run) Pop() (Handle, int64) {
	h, off := r.First, r.Region
	r.First.Offset += h.Class
	r.Region += int64(h.Class)
	r.N--
	return h, off
}

type slabRegion struct {
	id     int
	class  int
	base   int // offset of this slab within a backing buffer, if any
	buf    []byte
	blocks int
	// free has bit i set while block i (at offset i*class) is free; bits from
	// blocks up stay clear. nfree counts the set bits.
	free    []uint64
	nfree   int
	lastUse int64
}

func (s *slabRegion) isFree(i int) bool { return s.free[i/64]&(1<<(i%64)) != 0 }

// mark records blocks [at, at+n) as free or taken.
func (s *slabRegion) mark(at, n int, free bool) {
	for n > 0 {
		b := at % 64
		k := min(n, 64-b)
		mask := ^uint64(0) >> (64 - k) << b
		if free {
			s.free[at/64] |= mask
		} else {
			s.free[at/64] &^= mask
		}
		at, n = at+k, n-k
	}
}

// nextFree returns the first free block at or after pos, or s.blocks.
func (s *slabRegion) nextFree(pos int) int {
	for pos < s.blocks {
		if rest := s.free[pos/64] >> (pos % 64); rest != 0 {
			return pos + bits.TrailingZeros64(rest)
		}
		pos = (pos/64 + 1) * 64
	}
	return s.blocks
}

// freeLen counts the free blocks from pos up to the first taken one, or to
// most.
func (s *slabRegion) freeLen(pos, most int) int {
	n := 0
	for n < most && pos+n < s.blocks {
		b := (pos + n) % 64
		ones := bits.TrailingZeros64(^(s.free[(pos+n)/64] >> b))
		n += ones
		if ones < 64-b {
			break
		}
	}
	return min(n, most)
}

// findRun returns the lowest run of n free blocks, or -1.
func (s *slabRegion) findRun(n int) int {
	if n > s.nfree {
		return -1
	}
	for pos := s.nextFree(0); pos < s.blocks; {
		k := s.freeLen(pos, n)
		if k == n {
			return pos
		}
		pos = s.nextFree(pos + k)
	}
	return -1
}

// shard is one lock domain of the pool. Slab IDs encode their shard
// (id % shards == shard index), so any handle maps to its lock in O(1).
type shard struct {
	idx int

	mu          sync.Mutex
	nextLocalID int
	slabs       map[int]*slabRegion
	// partial[class] lists slabs of that class with at least one free block,
	// in ascending id order.
	partial map[int][]*slabRegion
}

// partialAt returns where s sits, or would sit, in its class's partial list.
func (sh *shard) partialAt(s *slabRegion) (int, bool) {
	return slices.BinarySearchFunc(sh.partial[s.class], s.id, func(x *slabRegion, id int) int { return x.id - id })
}

// Pool is a concurrency-safe, sharded slab allocator with a fixed byte
// budget. Independent operations on blocks in different shards proceed in
// parallel; the budget is a pool-wide atomic.
type Pool struct {
	name     string
	slabSize int
	shards   []*shard

	// maxBytes is the byte budget; registeredBytes the bytes currently held
	// in registered slabs. registeredBytes is reserved with a CAS loop
	// before a slab is created, so it never exceeds maxBytes and never goes
	// negative, without any pool-wide lock.
	maxBytes        atomic.Int64
	registeredBytes atomic.Int64

	// liveBytes is the bytes of allocated blocks (class-rounded), updated where
	// blocks are taken and returned, so FreeBytes never walks the shards.
	liveBytes atomic.Int64

	// tick is the pool-wide logical clock ordering slabs for LRU eviction.
	tick atomic.Int64

	registrations   atomic.Int64
	deregistrations atomic.Int64

	// backing, when non-nil, is the contiguous buffer slabs are carved from
	// (see NewPoolOver). baseMu is a leaf lock (acquired, if at all, inside
	// a shard lock) guarding base-slot recycling and the base→slab index
	// that makes HandleAt O(1).
	backing   []byte
	baseMu    sync.Mutex
	freeBases []int
	nextBase  int
	baseSlab  map[int]int // slab base offset -> slab id
}

// Option configures a Pool.
type Option func(*poolConfig)

type poolConfig struct {
	slabSize int
	shards   int
}

// WithSlabSize overrides the slab size in bytes (must be positive).
func WithSlabSize(n int) Option {
	return func(c *poolConfig) { c.slabSize = n }
}

// WithShards splits the pool into n independently locked shards (default 1,
// which reproduces the single-lock allocator exactly). Striping is by size
// class and allocation hint, so it is deterministic for a given workload.
func WithShards(n int) Option {
	return func(c *poolConfig) { c.shards = n }
}

// NewPool returns a pool named name limited to maxBytes of registered memory.
func NewPool(name string, maxBytes int64, opts ...Option) (*Pool, error) {
	cfg := poolConfig{slabSize: DefaultSlabSize, shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.slabSize <= 0 {
		return nil, fmt.Errorf("slab: slab size %d must be positive", cfg.slabSize)
	}
	if cfg.shards < 1 || cfg.shards > maxShards {
		return nil, fmt.Errorf("slab: shard count %d out of range [1, %d]", cfg.shards, maxShards)
	}
	if maxBytes < 0 {
		return nil, fmt.Errorf("slab: max bytes %d must be non-negative", maxBytes)
	}
	p := &Pool{
		name:     name,
		slabSize: cfg.slabSize,
		shards:   make([]*shard, cfg.shards),
	}
	for i := range p.shards {
		p.shards[i] = &shard{
			idx:     i,
			slabs:   map[int]*slabRegion{},
			partial: map[int][]*slabRegion{},
		}
	}
	p.maxBytes.Store(maxBytes)
	return p, nil
}

// Name returns the pool name.
func (p *Pool) Name() string { return p.name }

// Shards returns the number of lock shards.
func (p *Pool) Shards() int { return len(p.shards) }

// shardFor stripes an allocation to a shard by size class and hint. The
// result depends only on (class, hint), never on timing, so simulated runs
// stay deterministic.
func (p *Pool) shardFor(class int, hint uint64) int {
	if len(p.shards) == 1 {
		return 0
	}
	h := uint64(class)*0x9E3779B97F4A7C15 ^ hint*0xBF58476D1CE4E5B9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return int(h % uint64(len(p.shards)))
}

// shardOf maps a handle to the shard owning its slab.
func (p *Pool) shardOf(h Handle) (*shard, error) {
	if h.SlabID < 0 {
		return nil, fmt.Errorf("%w: slab %d not registered", ErrBadHandle, h.SlabID)
	}
	return p.shards[h.SlabID%len(p.shards)], nil
}

// Alloc claims one block of the given size class. class must be positive and
// no larger than the slab size.
func (p *Pool) Alloc(class int) (Handle, error) {
	return p.AllocHint(class, 0)
}

// AllocHint is Alloc with a striping hint: allocations with different hints
// (typically the entry key) spread across shards even within one size class,
// so concurrent allocators contend only when they hash to the same shard.
// It is AllocRun of one block.
func (p *Pool) AllocHint(class int, hint uint64) (Handle, error) {
	var one [1]Run
	runs, err := p.AllocRun(class, 1, hint, one[:0])
	if err != nil {
		return Handle{}, err
	}
	return runs[0].First, nil
}

// AllocRun claims n blocks of one size class and appends them to into as
// runs — pass a slice of a small array on the caller's stack and the common
// case, one run, costs no heap allocation.
//
// Under one acquisition of the home shard's lock (the shard class and hint
// stripe to) it takes the lowest run of n free blocks in the lowest-id slab
// that has one, else registers a fresh slab when the budget allows; n larger
// than a slab is taken as whole-slab runs plus a remainder. Only when the home
// shard holds no such run and the budget is spent does the request degrade to
// fragments: the lowest free blocks wherever they are, the home shard's first,
// then the other shards' in index order — so, as ever, the pool fails only
// when the blocks are not there: no shard holds enough free blocks of the
// class and the budget cannot register another slab.
//
// The call is all-or-nothing: on ErrNoSpace every block it took is free again
// and into comes back as it was passed (a slab it registered for an earlier
// whole-slab run stays registered, empty). Which blocks it returns depends
// only on the sequence of requests the pool has served, never on timing.
func (p *Pool) AllocRun(class, n int, hint uint64, into []Run) ([]Run, error) {
	if class <= 0 || class > p.slabSize {
		return into, fmt.Errorf("slab: class %d out of range (0, %d]", class, p.slabSize)
	}
	if n <= 0 {
		return into, fmt.Errorf("slab: run of %d blocks must be positive", n)
	}
	tick := p.tick.Add(1)
	home := p.shardFor(class, hint)
	mark := len(into)
	into, n = p.takeIn(p.shards[home], class, n, tick, true, into)
	for i := 0; n > 0 && i < len(p.shards); i++ {
		if i != home {
			into, n = p.takeIn(p.shards[i], class, n, tick, false, into)
		}
	}
	if n > 0 {
		for _, r := range into[mark:] {
			_ = p.FreeRun(r)
		}
		return into[:mark], fmt.Errorf("%w: %s at %d bytes", ErrNoSpace, p.name, p.maxBytes.Load())
	}
	return into, nil
}

// takeIn takes up to n blocks of class from sh under one acquisition of its
// lock, appends them to into as runs and returns how many are still wanted.
// The home shard serves whole runs first, from a fresh slab if it must; what
// it cannot serve so, and everything asked of another shard, comes as the
// lowest free blocks the shard has.
func (p *Pool) takeIn(sh *shard, class, n int, tick int64, home bool, into []Run) ([]Run, int) {
	perSlab := p.slabSize / class
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for home && n > 0 {
		k := min(n, perSlab)
		s, at := sh.findRun(class, k)
		if s == nil {
			if !p.reserveSlabBudget() {
				break
			}
			s = p.registerSlab(sh, class)
		}
		into = append(into, p.take(sh, s, at, k, tick))
		n -= k
	}
	for n > 0 && len(sh.partial[class]) > 0 {
		s := sh.partial[class][0]
		at := s.nextFree(0)
		k := s.freeLen(at, n)
		into = append(into, p.take(sh, s, at, k, tick))
		n -= k
	}
	return into, n
}

// findRun returns the lowest-id slab of class holding a run of n free blocks,
// and the lowest such run in it. Caller holds sh.mu.
func (sh *shard) findRun(class, n int) (*slabRegion, int) {
	for _, s := range sh.partial[class] {
		if at := s.findRun(n); at >= 0 {
			return s, at
		}
	}
	return nil, 0
}

// reserveSlabBudget claims slabSize bytes of the pool budget, or reports
// false when the budget is spent. The CAS loop means registeredBytes can
// never overshoot maxBytes, even transiently.
func (p *Pool) reserveSlabBudget() bool {
	n := int64(p.slabSize)
	for {
		cur := p.registeredBytes.Load()
		if cur+n > p.maxBytes.Load() {
			return false
		}
		if p.registeredBytes.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// registerSlab creates a slab in sh, every block free. Caller holds sh.mu and
// has already reserved the budget.
func (p *Pool) registerSlab(sh *shard, class int) *slabRegion {
	id := sh.nextLocalID*len(p.shards) + sh.idx
	sh.nextLocalID++
	blocks := p.slabSize / class
	s := &slabRegion{
		id:     id,
		class:  class,
		blocks: blocks,
		free:   make([]uint64, (blocks+63)/64),
		nfree:  blocks,
	}
	s.mark(0, blocks, true)
	if p.backing != nil {
		p.baseMu.Lock()
		if len(p.freeBases) > 0 {
			s.base = p.freeBases[len(p.freeBases)-1]
			p.freeBases = p.freeBases[:len(p.freeBases)-1]
		} else {
			s.base = p.nextBase
			p.nextBase += p.slabSize
		}
		p.baseSlab[s.base] = id
		p.baseMu.Unlock()
		s.buf = p.backing[s.base : s.base+p.slabSize]
	} else {
		s.buf = make([]byte, p.slabSize)
	}
	sh.slabs[id] = s
	// A shard's ids only grow, so the new slab sorts last.
	sh.partial[class] = append(sh.partial[class], s)
	p.registrations.Add(1)
	return s
}

// take claims blocks [at, at+n) of s, which the caller found free, as one
// run. It is the one place blocks leave the free bitmap. Caller holds sh.mu.
func (p *Pool) take(sh *shard, s *slabRegion, at, n int, tick int64) Run {
	s.mark(at, n, false)
	s.nfree -= n
	s.lastUse = tick
	if s.nfree == 0 {
		i, _ := sh.partialAt(s)
		sh.partial[s.class] = slices.Delete(sh.partial[s.class], i, i+1)
	}
	p.liveBytes.Add(int64(n) * int64(s.class))
	r := Run{First: Handle{SlabID: s.id, Offset: at * s.class, Class: s.class}, N: n}
	if p.backing != nil {
		r.Region = int64(s.base) + int64(r.First.Offset)
	}
	return r
}

// Free releases a block back to its slab.
func (p *Pool) Free(h Handle) error {
	sh, err := p.shardOf(h)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return p.freeIn(sh, h)
}

// FreeRun releases every block of a run AllocRun returned, under one
// acquisition of its shard's lock.
func (p *Pool) FreeRun(r Run) error {
	sh, err := p.shardOf(r.First)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for r.N > 0 {
		h, _ := r.Pop()
		if e := p.freeIn(sh, h); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// FreeAll releases every block in hs, taking each shard's lock once however
// many of its blocks are named and in whatever order. Every handle is tried;
// the first error is returned.
func (p *Pool) FreeAll(hs []Handle) error {
	// A negative slab id lands on some shard, whose validate refuses it.
	shardIdx := func(h Handle) int { return int(uint(h.SlabID) % uint(len(p.shards))) }
	var named [maxShards / 64]uint64
	for _, h := range hs {
		si := shardIdx(h)
		named[si/64] |= 1 << (si % 64)
	}
	var first error
	for si, sh := range p.shards {
		if named[si/64]&(1<<(si%64)) == 0 {
			continue
		}
		sh.mu.Lock()
		for _, h := range hs {
			if shardIdx(h) != si {
				continue
			}
			if err := p.freeIn(sh, h); err != nil && first == nil {
				first = err
			}
		}
		sh.mu.Unlock()
	}
	return first
}

// freeIn returns h's block to the free bitmap. It is the one place blocks
// come back short of their whole slab being dropped. Caller holds sh.mu.
func (p *Pool) freeIn(sh *shard, h Handle) error {
	s, err := sh.validate(h)
	if err != nil {
		return err
	}
	s.mark(h.Offset/s.class, 1, true)
	s.nfree++
	if s.nfree == 1 {
		i, _ := sh.partialAt(s)
		sh.partial[s.class] = slices.Insert(sh.partial[s.class], i, s)
	}
	p.liveBytes.Add(-int64(s.class))
	return nil
}

// validate resolves a handle within the shard. Caller holds sh.mu.
func (sh *shard) validate(h Handle) (*slabRegion, error) {
	s, ok := sh.slabs[h.SlabID]
	if !ok {
		return nil, fmt.Errorf("%w: slab %d not registered", ErrBadHandle, h.SlabID)
	}
	if h.Class != s.class || h.Offset < 0 || h.Offset+h.Class > len(s.buf) || h.Offset%s.class != 0 {
		return nil, fmt.Errorf("%w: handle %+v does not match slab layout", ErrBadHandle, h)
	}
	if s.isFree(h.Offset / s.class) {
		return nil, fmt.Errorf("%w: block at %d not allocated", ErrBadHandle, h.Offset)
	}
	return s, nil
}

// Write copies data into the block. len(data) must not exceed the class size.
func (p *Pool) Write(h Handle, data []byte) error {
	if len(data) > h.Class {
		return fmt.Errorf("slab: write of %d bytes exceeds class %d", len(data), h.Class)
	}
	sh, err := p.shardOf(h)
	if err != nil {
		return err
	}
	tick := p.tick.Add(1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, err := sh.validate(h)
	if err != nil {
		return err
	}
	s.lastUse = tick
	copy(s.buf[h.Offset:h.Offset+h.Class], data)
	return nil
}

// Read copies up to n bytes of the block into a fresh slice.
func (p *Pool) Read(h Handle, n int) ([]byte, error) {
	return p.ReadAt(h, 0, n)
}

// ReadAt copies n bytes starting at off within the block into a fresh slice:
// ReadAtInto a buffer of its own.
func (p *Pool) ReadAt(h Handle, off, n int) ([]byte, error) {
	if n < 0 || n > h.Class {
		return nil, fmt.Errorf("slab: read of %d bytes exceeds class %d", n, h.Class)
	}
	out := make([]byte, n)
	if err := p.ReadAtInto(h, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAtInto fills dst with the len(dst) bytes starting at off within the
// block. It is the pool's one read; dst is the caller's and is not retained.
func (p *Pool) ReadAtInto(h Handle, off int, dst []byte) error {
	n := len(dst)
	if off < 0 || off+n > h.Class {
		return fmt.Errorf("slab: read [%d,%d) exceeds class %d", off, off+n, h.Class)
	}
	sh, err := p.shardOf(h)
	if err != nil {
		return err
	}
	tick := p.tick.Add(1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, err := sh.validate(h)
	if err != nil {
		return err
	}
	s.lastUse = tick
	copy(dst, s.buf[h.Offset+off:h.Offset+off+n])
	return nil
}

// EvictLRU deregisters the least-recently-used slab across all shards and
// returns the handles of blocks that were still live in it, so the caller
// can relocate their contents. The block data is gone after this call.
func (p *Pool) EvictLRU() ([]Handle, error) {
	for {
		// Pass 1: find the global LRU candidate, locking one shard at a time.
		victimShard, victimID := -1, 0
		var victimUse int64
		for si, sh := range p.shards {
			sh.mu.Lock()
			for _, s := range sh.slabs {
				if victimShard == -1 || s.lastUse < victimUse ||
					(s.lastUse == victimUse && s.id < victimID) {
					victimShard, victimID, victimUse = si, s.id, s.lastUse
				}
			}
			sh.mu.Unlock()
		}
		if victimShard == -1 {
			return nil, ErrEmpty
		}
		// Pass 2: re-acquire the winner's shard and drop the slab if it still
		// exists; a concurrent eviction or shrink may have raced us, in which
		// case rescan.
		sh := p.shards[victimShard]
		sh.mu.Lock()
		if s, ok := sh.slabs[victimID]; ok {
			handles := p.dropSlab(sh, s)
			sh.mu.Unlock()
			return handles, nil
		}
		sh.mu.Unlock()
	}
}

// dropSlab deregisters s from sh and returns its live blocks, lowest first.
// Caller holds sh.mu.
func (p *Pool) dropSlab(sh *shard, s *slabRegion) []Handle {
	handles := make([]Handle, 0, s.blocks-s.nfree)
	for i := 0; i < s.blocks; i++ {
		if !s.isFree(i) {
			handles = append(handles, Handle{SlabID: s.id, Offset: i * s.class, Class: s.class})
		}
	}
	delete(sh.slabs, s.id)
	if i, ok := sh.partialAt(s); ok {
		sh.partial[s.class] = slices.Delete(sh.partial[s.class], i, i+1)
	}
	if p.backing != nil {
		p.baseMu.Lock()
		p.freeBases = append(p.freeBases, s.base)
		delete(p.baseSlab, s.base)
		p.baseMu.Unlock()
	}
	p.liveBytes.Add(-int64(len(handles)) * int64(s.class))
	p.registeredBytes.Add(-int64(p.slabSize))
	p.deregistrations.Add(1)
	return handles
}

// ShrinkEmpty releases fully-free slabs until the budget drops by up to
// wantBytes, returning the bytes actually released. Live blocks are never
// disturbed.
func (p *Pool) ShrinkEmpty(wantBytes int64) int64 {
	var released int64
	for _, sh := range p.shards {
		if released >= wantBytes {
			break
		}
		sh.mu.Lock()
		ids := make([]int, 0, len(sh.slabs))
		for id := range sh.slabs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			if released >= wantBytes {
				break
			}
			s := sh.slabs[id]
			if s.nfree == s.blocks {
				p.dropSlab(sh, s)
				released += int64(p.slabSize)
			}
		}
		sh.mu.Unlock()
	}
	for {
		cur := p.maxBytes.Load()
		next := cur - released
		if next < 0 {
			next = 0
		}
		if p.maxBytes.CompareAndSwap(cur, next) {
			break
		}
	}
	return released
}

// ShrinkBudget lowers the pool's byte budget by up to wantBytes without
// touching registered slabs: only unbacked headroom (budget no slab has
// claimed yet) is surrendered. It returns the bytes actually cut. Combined
// with ShrinkEmpty this lets a donor claw back capacity cheapest-first:
// headroom costs nothing, empty slabs cost a deregistration, and only live
// slabs force block migration.
func (p *Pool) ShrinkBudget(wantBytes int64) int64 {
	if wantBytes <= 0 {
		return 0
	}
	for {
		cur := p.maxBytes.Load()
		headroom := cur - p.registeredBytes.Load()
		if headroom <= 0 {
			return 0
		}
		cut := wantBytes
		if cut > headroom {
			cut = headroom
		}
		if p.maxBytes.CompareAndSwap(cur, cur-cut) {
			return cut
		}
	}
}

// Grow raises the pool's byte budget by n.
func (p *Pool) Grow(n int64) {
	if n < 0 {
		panic("slab: Grow with negative bytes")
	}
	p.maxBytes.Add(n)
}

// Stats is a snapshot of pool occupancy.
type Stats struct {
	MaxBytes        int64
	RegisteredBytes int64 // bytes currently held in registered slabs
	LiveBytes       int64 // bytes of allocated blocks (class-rounded)
	LiveBlocks      int
	Slabs           int
	Shards          int
	Registrations   int64 // cumulative slab registrations
	Deregistrations int64 // cumulative slab deregistrations (evictions)
}

// Stats returns a snapshot. Under concurrent mutation the per-shard figures
// are each internally consistent but the cross-shard sums are a racy (still
// monotonic-in-aggregate) composite; quiescent pools get exact numbers.
func (p *Pool) Stats() Stats {
	st := Stats{
		MaxBytes:        p.maxBytes.Load(),
		RegisteredBytes: p.registeredBytes.Load(),
		Shards:          len(p.shards),
		Registrations:   p.registrations.Load(),
		Deregistrations: p.deregistrations.Load(),
	}
	for _, sh := range p.shards {
		sh.mu.Lock()
		st.Slabs += len(sh.slabs)
		for _, s := range sh.slabs {
			live := s.blocks - s.nfree
			st.LiveBlocks += live
			st.LiveBytes += int64(live) * int64(s.class)
		}
		sh.mu.Unlock()
	}
	return st
}

// FreeBytes reports budget headroom plus free blocks inside registered slabs
// — MaxBytes - LiveBytes, however the blocks are spread over slabs and shards
// — as two atomic loads: no shard lock is taken, so it is cheap enough to
// refresh a gauge from on every request. Under concurrent mutation the two
// loads are not one instant; a quiescent pool gets Stats's exact figure.
func (p *Pool) FreeBytes() int64 {
	return p.maxBytes.Load() - p.liveBytes.Load()
}
