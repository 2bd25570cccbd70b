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
// fragmented to hold such a run anywhere hands out fragments.
//
// A pool is one lock: its slabs, their free bitmaps, the slab ids and the byte
// budget all sit under one mutex, taken once per call. A new slab is
// registered only when no registered slab of the class can serve the request.
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

// Pool is a concurrency-safe slab allocator with a fixed byte budget.
type Pool struct {
	name     string
	slabSize int

	// maxBytes is the byte budget and liveBytes the bytes of allocated blocks
	// (class-rounded). They are atomic only so FreeBytes can read them without
	// the lock; every change to maxBytes that could undercut registeredBytes,
	// and every change to liveBytes, is made under mu.
	maxBytes  atomic.Int64
	liveBytes atomic.Int64

	mu sync.Mutex
	// nextID numbers slabs; an id is never issued twice.
	nextID int
	slabs  map[int]*slabRegion
	// partial[class] lists slabs of that class with at least one free block,
	// in ascending id order.
	partial map[int][]*slabRegion
	// registeredBytes is the bytes held in registered slabs, never above
	// maxBytes.
	registeredBytes int64
	// tick is the logical clock ordering slabs for LRU eviction.
	tick            int64
	registrations   int64
	deregistrations int64

	// backing, when non-nil, is the contiguous buffer slabs are carved from
	// (see NewPoolOver); freeBases and nextBase recycle slab-sized slots of it,
	// and baseSlab maps a slot to the slab in it, which makes HandleAt O(1).
	backing   []byte
	freeBases []int
	nextBase  int
	baseSlab  map[int]*slabRegion
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

// WithShards is kept only because bench/probes.go passes it: a pool has one
// lock, and NewPool refuses any n but 1. A benchmark change drops the call,
// and then this name.
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
	if cfg.shards != 1 {
		return nil, fmt.Errorf("slab: %d shards requested; a pool has one lock", cfg.shards)
	}
	if maxBytes < 0 {
		return nil, fmt.Errorf("slab: max bytes %d must be non-negative", maxBytes)
	}
	p := &Pool{
		name:     name,
		slabSize: cfg.slabSize,
		slabs:    map[int]*slabRegion{},
		partial:  map[int][]*slabRegion{},
	}
	p.maxBytes.Store(maxBytes)
	return p, nil
}

// Name returns the pool name.
func (p *Pool) Name() string { return p.name }

// Alloc claims one block of the given size class. class must be positive and
// no larger than the slab size. It is AllocRun of one block.
func (p *Pool) Alloc(class int) (Handle, error) {
	var one [1]Run
	runs, err := p.AllocRun(class, 1, one[:0])
	if err != nil {
		return Handle{}, err
	}
	return runs[0].First, nil
}

// AllocRun claims n blocks of one size class and appends them to into as
// runs — pass a slice of a small array on the caller's stack and the common
// case, one run, costs no heap allocation.
//
// Under one acquisition of the lock it takes the lowest run of n free blocks
// in the lowest-id slab that has one, else registers a fresh slab when the
// budget allows; n larger than a slab is taken as whole-slab runs plus a
// remainder. Only when no slab holds such a run and the budget is spent does
// the request degrade to fragments, the lowest free blocks there are — so the
// pool fails only when the blocks are not there: too few free blocks of the
// class and no budget to register another slab.
//
// The call is all-or-nothing: on ErrNoSpace every block it took is free again
// and into comes back as it was passed (a slab it registered for an earlier
// whole-slab run stays registered, empty). Which blocks it returns depends
// only on the sequence of requests the pool has served, never on timing.
func (p *Pool) AllocRun(class, n int, into []Run) ([]Run, error) {
	if class <= 0 || class > p.slabSize {
		return into, fmt.Errorf("slab: class %d out of range (0, %d]", class, p.slabSize)
	}
	if n <= 0 {
		return into, fmt.Errorf("slab: run of %d blocks must be positive", n)
	}
	perSlab := p.slabSize / class
	mark := len(into)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tick++
	for n > 0 {
		k := min(n, perSlab)
		s, at := p.findRun(class, k)
		if s == nil {
			if p.registeredBytes+int64(p.slabSize) > p.maxBytes.Load() {
				break
			}
			s = p.registerSlab(class)
		}
		into = append(into, p.take(s, at, k))
		n -= k
	}
	for n > 0 && len(p.partial[class]) > 0 {
		s := p.partial[class][0]
		at := s.nextFree(0)
		k := s.freeLen(at, n)
		into = append(into, p.take(s, at, k))
		n -= k
	}
	if n > 0 {
		for _, r := range into[mark:] {
			_ = p.freeRunLocked(r)
		}
		return into[:mark], fmt.Errorf("%w: %s at %d bytes", ErrNoSpace, p.name, p.maxBytes.Load())
	}
	return into, nil
}

// findRun returns the lowest-id slab of class holding a run of n free blocks,
// and the lowest such run in it. Caller holds p.mu.
func (p *Pool) findRun(class, n int) (*slabRegion, int) {
	for _, s := range p.partial[class] {
		if at := s.findRun(n); at >= 0 {
			return s, at
		}
	}
	return nil, 0
}

// registerSlab creates a slab of class, every block free, charging it to the
// budget. Caller holds p.mu and has checked the budget.
func (p *Pool) registerSlab(class int) *slabRegion {
	blocks := p.slabSize / class
	s := &slabRegion{
		id:     p.nextID,
		class:  class,
		blocks: blocks,
		free:   make([]uint64, (blocks+63)/64),
		nfree:  blocks,
	}
	p.nextID++
	s.mark(0, blocks, true)
	if p.backing != nil {
		if len(p.freeBases) > 0 {
			s.base = p.freeBases[len(p.freeBases)-1]
			p.freeBases = p.freeBases[:len(p.freeBases)-1]
		} else {
			s.base = p.nextBase
			p.nextBase += p.slabSize
		}
		p.baseSlab[s.base] = s
		s.buf = p.backing[s.base : s.base+p.slabSize]
	} else {
		s.buf = make([]byte, p.slabSize)
	}
	p.slabs[s.id] = s
	// Ids only grow, so the new slab sorts last.
	p.partial[class] = append(p.partial[class], s)
	p.registeredBytes += int64(p.slabSize)
	p.registrations++
	return s
}

// partialAt returns where s sits, or would sit, in its class's partial list.
func (p *Pool) partialAt(s *slabRegion) (int, bool) {
	return slices.BinarySearchFunc(p.partial[s.class], s.id, func(x *slabRegion, id int) int { return x.id - id })
}

// take claims blocks [at, at+n) of s, which the caller found free, as one
// run. It is the one place blocks leave the free bitmap. Caller holds p.mu.
func (p *Pool) take(s *slabRegion, at, n int) Run {
	s.mark(at, n, false)
	s.nfree -= n
	s.lastUse = p.tick
	if s.nfree == 0 {
		i, _ := p.partialAt(s)
		p.partial[s.class] = slices.Delete(p.partial[s.class], i, i+1)
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
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.freeLocked(h)
}

// FreeRun releases every block of a run AllocRun returned.
func (p *Pool) FreeRun(r Run) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.freeRunLocked(r)
}

// freeRunLocked is FreeRun under p.mu.
func (p *Pool) freeRunLocked(r Run) error {
	var err error
	for r.N > 0 {
		h, _ := r.Pop()
		if e := p.freeLocked(h); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// FreeAll releases every block in hs under one acquisition of the lock. Every
// handle is tried; the first error is returned.
func (p *Pool) FreeAll(hs []Handle) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for _, h := range hs {
		if err := p.freeLocked(h); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// freeLocked returns h's block to the free bitmap. It is the one place blocks
// come back short of their whole slab being dropped. Caller holds p.mu.
func (p *Pool) freeLocked(h Handle) error {
	s, err := p.validate(h)
	if err != nil {
		return err
	}
	s.mark(h.Offset/s.class, 1, true)
	s.nfree++
	if s.nfree == 1 {
		i, _ := p.partialAt(s)
		p.partial[s.class] = slices.Insert(p.partial[s.class], i, s)
	}
	p.liveBytes.Add(-int64(s.class))
	return nil
}

// validate resolves a handle to its slab. Caller holds p.mu.
func (p *Pool) validate(h Handle) (*slabRegion, error) {
	s, ok := p.slabs[h.SlabID]
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
	p.mu.Lock()
	defer p.mu.Unlock()
	s, err := p.validate(h)
	if err != nil {
		return err
	}
	p.tick++
	s.lastUse = p.tick
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
	p.mu.Lock()
	defer p.mu.Unlock()
	s, err := p.validate(h)
	if err != nil {
		return err
	}
	p.tick++
	s.lastUse = p.tick
	copy(dst, s.buf[h.Offset+off:h.Offset+off+n])
	return nil
}

// EvictLRU deregisters the least-recently-used slab (the lowest id among
// equals) and returns the handles of blocks that were still live in it, so
// the caller can relocate their contents. The block data is gone after this
// call.
func (p *Pool) EvictLRU() ([]Handle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var victim *slabRegion
	for _, s := range p.slabs {
		if victim == nil || s.lastUse < victim.lastUse || (s.lastUse == victim.lastUse && s.id < victim.id) {
			victim = s
		}
	}
	if victim == nil {
		return nil, ErrEmpty
	}
	return p.dropSlab(victim), nil
}

// dropSlab deregisters s and returns its live blocks, lowest first. Caller
// holds p.mu.
func (p *Pool) dropSlab(s *slabRegion) []Handle {
	handles := make([]Handle, 0, s.blocks-s.nfree)
	for i := 0; i < s.blocks; i++ {
		if !s.isFree(i) {
			handles = append(handles, Handle{SlabID: s.id, Offset: i * s.class, Class: s.class})
		}
	}
	delete(p.slabs, s.id)
	if i, ok := p.partialAt(s); ok {
		p.partial[s.class] = slices.Delete(p.partial[s.class], i, i+1)
	}
	if p.backing != nil {
		p.freeBases = append(p.freeBases, s.base)
		delete(p.baseSlab, s.base)
	}
	p.liveBytes.Add(-int64(len(handles)) * int64(s.class))
	p.registeredBytes -= int64(p.slabSize)
	p.deregistrations++
	return handles
}

// ShrinkEmpty releases fully-free slabs, lowest id first, until the budget
// drops by up to wantBytes, returning the bytes actually released. Live
// blocks are never disturbed.
func (p *Pool) ShrinkEmpty(wantBytes int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]int, 0, len(p.slabs))
	for id, s := range p.slabs {
		if s.nfree == s.blocks {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	var released int64
	for _, id := range ids {
		if released >= wantBytes {
			break
		}
		p.dropSlab(p.slabs[id])
		released += int64(p.slabSize)
	}
	p.maxBytes.Add(-released)
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
	p.mu.Lock()
	defer p.mu.Unlock()
	cut := min(wantBytes, max(p.maxBytes.Load()-p.registeredBytes, 0))
	p.maxBytes.Add(-cut)
	return cut
}

// Grow raises the pool's byte budget by n. A raise never undercuts the slabs
// already registered, so it needs no lock.
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
	Registrations   int64 // cumulative slab registrations
	Deregistrations int64 // cumulative slab deregistrations (evictions)
}

// Stats returns a snapshot, taken under the lock.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		MaxBytes:        p.maxBytes.Load(),
		RegisteredBytes: p.registeredBytes,
		Slabs:           len(p.slabs),
		Registrations:   p.registrations,
		Deregistrations: p.deregistrations,
	}
	for _, s := range p.slabs {
		live := s.blocks - s.nfree
		st.LiveBlocks += live
		st.LiveBytes += int64(live) * int64(s.class)
	}
	return st
}

// FreeBytes reports budget headroom plus free blocks inside registered slabs
// — MaxBytes - LiveBytes, however the blocks are spread over slabs — as two
// atomic loads: no lock is taken, so it is cheap enough to refresh a gauge
// from on every request. Under concurrent mutation the two loads are not one
// instant; a quiescent pool gets Stats's exact figure.
func (p *Pool) FreeBytes() int64 {
	return p.maxBytes.Load() - p.liveBytes.Load()
}
