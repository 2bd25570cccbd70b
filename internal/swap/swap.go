// Package swap implements FastSwap — the paper's hybrid disaggregated-memory
// swapping system (§IV.H, §V.A) — together with every baseline the
// evaluation compares against, all as configurations of one page-fault
// engine:
//
//   - FastSwap: node-level shared memory + cluster-level remote memory with
//     a configurable distribution ratio (FS-SM, FS-9:1 … FS-RDMA), page
//     compression with size-class granularities, window-based batch swap-out
//     through the send buffer pool, and proactive batch swap-in (PBS).
//   - Infiniswap and NBDX: remote-only paging through an RDMA block device —
//     per-page requests, no compression, no shared memory, block-stack
//     overhead per request.
//   - Linux: disk swap with kernel-style swap clustering and readahead.
//   - Zswap: a compressed in-RAM cache (zbud size classes) in front of disk.
//
// The engine maintains a resident-set LRU. A Touch of a non-resident page is
// a fault: the page is fetched from wherever its batch is parked (shared
// pool, remote memory, or disk), and a victim overflows into the staging
// window, which flushes as one batch entry when full. All latencies are
// charged to the calling simulation process.
package swap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"godm/internal/compress"
	"godm/internal/core"
	"godm/internal/des"
	"godm/internal/memdev"
	"godm/internal/metrics"
	"godm/internal/pagetable"
	"godm/internal/prefetch"
	"godm/internal/trace"
)

// PageSize is the swap unit.
const PageSize = compress.PageSize

// Adaptive-tiering cadence. The fault counter is the clock: a batch
// untouched for demoteAfter faults is cold, sweeps run every demoteEvery
// faults, and promoteTouches demand fetches climb a batch one rung back up.
const (
	demoteAfter    = 256
	demoteEvery    = 64
	promoteTouches = 2
	// demotePerSweep bounds how many cold batches one sweep moves, so a
	// single fault never absorbs an unbounded migration backlog.
	demotePerSweep = 4
)

// ErrNoBacking is returned when a fault cannot be served from any tier.
var ErrNoBacking = errors.New("swap: page lost on every tier")

// ErrBadPage is returned by Touch for a page number the table cannot index:
// negative, or beyond what its 32-bit links name.
var ErrBadPage = errors.New("swap: page number out of range")

// Config selects a swapping system.
type Config struct {
	// Name labels the system in experiment output.
	Name string
	// ResidentPages is how many pages fit in the virtual server's memory
	// (the 50%/75% "configurations" of §V scale this against the working
	// set).
	ResidentPages int
	// Window is the swap-out batch size d (§IV.H window-based batching);
	// 1 disables batching.
	Window int
	// NodeRatio is the tenths of swap-out traffic directed to the
	// node-level shared memory pool: 10 = FS-SM, 9 = FS-9:1, 0 = FS-RDMA.
	// -1 disables the shared tier entirely (Linux, Infiniswap, NBDX).
	NodeRatio int
	// RemoteEnabled allows the cluster-level remote memory tier.
	RemoteEnabled bool
	// Readahead is how many pages of a parked batch a single fault brings
	// in (PBS when > 1). Kernel-style disk readahead is the same mechanism.
	Readahead int
	// Compression enables page compression with the given granularity.
	Compression bool
	Granularity compress.Granularity
	// PageRatio gives each page's compressibility (required when
	// Compression is on).
	PageRatio func(page int) float64
	// CompressCPU and DecompressCPU are charged per page (de)compressed.
	CompressCPU   time.Duration
	DecompressCPU time.Duration
	// RemoteOverhead is the block-I/O stack cost per remote request, the
	// penalty Infiniswap and NBDX pay for riding a block device (nbd queue,
	// bio handling) instead of FastSwap's direct path.
	RemoteOverhead time.Duration
	// MaxMessageBytes caps a single fabric message (§IV.H's message size m;
	// DAHI's RPC layer defaults to 8 KB messages with a 1 MB maximum). A
	// batch larger than m is split into multiple messages, each paying
	// MessageOverhead. Zero means unlimited.
	MaxMessageBytes int
	// MessageOverhead is the per-extra-message cost when a batch splits.
	MessageOverhead time.Duration
	// SSDEnabled inserts a local flash tier between remote memory and the
	// spinning swap device — the XMemPod hierarchy of the paper's [36]
	// (shared memory, then remote memory, then SSD, then disk).
	SSDEnabled bool

	// LeapPrefetch replaces the in-batch PBS readahead with the Leap
	// majority-trend stride detector: each access feeds the detector, each
	// fault asks it for a trend, and predicted pages are fetched from
	// whatever batches they are parked in — across batch boundaries, with
	// depth adapting to hit/waste feedback. Readahead is ignored while set.
	LeapPrefetch bool
	// AddressSpace is the workload's page count, bounding predictions.
	// Required when LeapPrefetch is on.
	AddressSpace int

	// Tiering adds a hotness-driven ladder over the two pools: a batch idle
	// for demoteAfter faults sinks one rung — shared → remote →
	// remote-deflated — and a batch demand-fetched promoteTouches times
	// climbs one rung back up. Disk and SSD stay outside the ladder: they
	// take a batch only when the pools are full. Requires RemoteEnabled, a
	// SharedMem device, and PageRatio for the deflated rung's size model.
	Tiering bool
}

func (c Config) validate() error {
	if c.ResidentPages <= 0 {
		return fmt.Errorf("swap: resident pages %d must be positive", c.ResidentPages)
	}
	if c.Window < 1 {
		return fmt.Errorf("swap: window %d must be >= 1", c.Window)
	}
	if c.Readahead < 1 {
		return fmt.Errorf("swap: readahead %d must be >= 1", c.Readahead)
	}
	if c.NodeRatio < -1 || c.NodeRatio > 10 {
		return fmt.Errorf("swap: node ratio %d outside [-1,10]", c.NodeRatio)
	}
	if c.Compression && c.PageRatio == nil {
		return errors.New("swap: compression enabled without PageRatio")
	}
	if c.MaxMessageBytes < 0 {
		return fmt.Errorf("swap: max message bytes %d must be non-negative", c.MaxMessageBytes)
	}
	if c.LeapPrefetch && c.AddressSpace <= 0 {
		return errors.New("swap: Leap prefetch needs a positive AddressSpace bound")
	}
	if c.Tiering && c.PageRatio == nil {
		return errors.New("swap: tiering needs PageRatio for the deflated rung")
	}
	if c.Tiering && !c.RemoteEnabled {
		return errors.New("swap: tiering needs the remote tier for its lower rungs")
	}
	return nil
}

// Stats counts engine activity.
type Stats struct {
	Accesses   int64
	Hits       int64
	Faults     int64
	ColdFills  int64 // first-touch zero fills
	SwapOuts   int64 // pages written out
	SwapIns    int64 // pages read in on demand
	Prefetched int64 // pages brought in ahead of demand (PBS, Leap, pump)
	// Pages written to and read from each tier, ladder moves included.
	SharedOuts int64
	RemoteOuts int64
	DiskOuts   int64
	SharedIns  int64
	RemoteIns  int64
	SSDOuts    int64
	SSDIns     int64
	DiskIns    int64
	CleanDrops int64 // clean pages dropped without rewrite (swap-cache hit)
	BytesOut   int64 // stored (possibly compressed) bytes written
	BytesIn    int64
	RawOut     int64 // uncompressed bytes represented by BytesOut

	PrefetchHits  int64 // prefetched pages later hit while resident
	PrefetchWaste int64 // prefetched pages evicted before any hit
	Demotions     int64 // pages moved down the tier ladder
	Promotions    int64 // pages moved back up
}

// PrefetchAccuracy is the fraction of issued prefetches that were hit before
// eviction. Zero when nothing was prefetched.
func (s Stats) PrefetchAccuracy() float64 {
	if s.Prefetched == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(s.Prefetched)
}

// PrefetchCoverage is the fraction of backing-store reads that prefetching
// turned into hits: hits / (hits + demand swap-ins).
func (s Stats) PrefetchCoverage() float64 {
	den := s.PrefetchHits + s.SwapIns
	if den == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(den)
}

// Metrics is the engine's instrumentation, bound once at construction so the
// fault path never takes a registry lock. Constructing it on a tree-mounted
// registry pre-declares every family, so an exporter lists them (zeroed)
// before the first fault. All latency observations use simulated time.
type Metrics struct {
	accesses       *metrics.Counter
	hits           *metrics.Counter
	faults         *metrics.Counter
	swapIns        *metrics.Counter
	swapOuts       *metrics.Counter
	prefetched     *metrics.Counter
	prefetchHits   *metrics.Counter
	prefetchWasted *metrics.Counter
	demotions      *metrics.Counter
	promotions     *metrics.Counter
	prefetchDepth  *metrics.Gauge
	residentPages  *metrics.Gauge
	tierPages      [tierCount]*metrics.Gauge
	faultLatency   *metrics.Histogram
	swapOutLatency *metrics.Histogram
}

// NewMetrics binds the swap instrument families on reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	m := &Metrics{
		accesses:       reg.Counter("accesses"),
		hits:           reg.Counter("hits"),
		faults:         reg.Counter("faults"),
		swapIns:        reg.Counter("swap_ins"),
		swapOuts:       reg.Counter("swap_outs"),
		prefetched:     reg.Counter("prefetched"),
		prefetchHits:   reg.Counter("prefetch_hits"),
		prefetchWasted: reg.Counter("prefetch_wasted"),
		demotions:      reg.Counter("tier_demotions"),
		promotions:     reg.Counter("tier_promotions"),
		prefetchDepth:  reg.Gauge("prefetch_depth"),
		residentPages:  reg.Gauge("resident_pages"),
		faultLatency:   reg.Histogram("fault_latency"),
		swapOutLatency: reg.Histogram("swap_out_latency"),
	}
	for t := tierShared; t < tierCount; t++ {
		m.tierPages[t] = reg.Gauge("tier_" + tierNames[t] + "_pages")
	}
	return m
}

// Deps are the devices and disaggregated-memory attachment of one engine.
type Deps struct {
	// VS is the virtual server's LDMC; nil when the system uses neither
	// shared nor remote memory (Linux baseline).
	VS *core.VirtualServer
	// DRAM, Shared, and Disk model the local tiers. DRAM and Disk are
	// required; Shared only when the shared tier or Tiering is enabled, SSD
	// only when SSDEnabled.
	DRAM   *memdev.DRAM
	Shared *memdev.SharedMem
	SSD    *memdev.SSD
	Disk   *memdev.Disk
	// Metrics mounts the engine's instrumentation; nil means a private
	// registry nothing exports.
	Metrics *Metrics
}

// noPage ends the LRU list and stands for "not staged".
const noPage = -1

// pageRec is everything the engine knows about one page; Manager.pages holds
// one per page number. Touch grows the table before it does anything else and
// nothing else grows it, so a *pageRec is good until the next Touch can run:
// none is held across a call that sleeps, because ProactiveSwapIn runs beside
// the faulting process.
type pageRec struct {
	prev, next int32 // LRU neighbours while resident, noPage at the ends
	staged     int32 // index in Manager.window, noPage when not staged
	resident   bool
	dirty      bool    // resident and modified since swap-in
	marked     bool    // resident, brought in by prefetch, not yet hit
	parked     bool    // ref names a parked copy (kept for clean residents)
	ref        slotRef // valid while parked
}

// slotRef names a parked copy by the batch itself. A released batch has no
// live slot left, so the slot's live bit is the whole validity check.
type slotRef struct {
	b    *batchInfo
	slot int
}

func (r slotRef) live() bool { return r.b.slots[r.slot].live }

// slot is one page's place in a batch's stored payload.
type slot struct {
	page, off, size int // off within the stored payload, size the stored (class) size
	live            bool
}

type batchInfo struct {
	id        uint64
	where     tier
	diskOff   int64
	slots     []slot
	liveCount int
	total     int // stored payload bytes

	lastUse int64 // fault-clock time of creation or last demand fetch
	touches int   // demand fetches since the last promotion

	older, newer *batchInfo // neighbours in Manager.live
}

// Manager is one virtual server's swapping system. One simulation process at
// a time drives Touch, EvictAll and Flush (the faulting vCPU); ProactiveSwapIn
// may run beside it from a process of its own.
type Manager struct {
	cfg   Config
	deps  Deps
	met   *Metrics
	model *compress.Model

	pages      []pageRec // indexed by page number
	head, tail int32     // resident-set LRU through pages: head = most recent
	lruLen     int       // resident pages
	window     []int     // staged victim pages, in eviction order
	// live is the sentinel of a ring through the batches with a live slot, in
	// creation (= id) order: live.newer is the oldest, live.older the newest.
	live     batchInfo
	nextID   uint64
	diskNext int64
	counter  int64
	zeros    []byte // stand-in payload for every park: sizes move, contents do not
	scratch  []byte // where every pool read lands: the bytes are charged, never looked at

	det       *prefetch.Detector // Leap stride detector (nil unless enabled)
	leapRefs  []slotRef          // leapPrefetch's working set, kept between faults
	leapSlots []int              // one group of it, as readSlots takes them
	inSlots   []int              // swapIn's request, kept between faults the same way
	moveSlots []int              // relocate's live slots and their pages: not inSlots,
	movePages []int              // which is live when promote runs inside swapIn
	contHits  int                // prefetch hits since the last stream continuation
	sweepTick int                // faults since the last demotion sweep
	tierPop   [tierCount]int64   // live parked pages per tier

	stats Stats
}

// NewManager builds an engine. deps.VS may be nil only if both the shared
// and remote tiers are disabled.
func NewManager(cfg Config, deps Deps) (*Manager, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if deps.DRAM == nil || deps.Disk == nil {
		return nil, errors.New("swap: DRAM and Disk devices are required")
	}
	usesShared := cfg.NodeRatio > 0 || cfg.Tiering // promotion's top rung
	if (usesShared || cfg.RemoteEnabled) && deps.VS == nil {
		return nil, errors.New("swap: shared/remote tiers need a virtual server")
	}
	if usesShared && deps.Shared == nil {
		return nil, errors.New("swap: shared tier needs a SharedMem device")
	}
	if cfg.SSDEnabled && deps.SSD == nil {
		return nil, errors.New("swap: SSD tier needs an SSD device")
	}
	met := deps.Metrics
	if met == nil {
		met = NewMetrics(metrics.NewRegistry("swap"))
	}
	m := &Manager{
		cfg:    cfg,
		deps:   deps,
		met:    met,
		head:   noPage,
		tail:   noPage,
		window: make([]int, 0, cfg.Window),
	}
	m.live.older, m.live.newer = &m.live, &m.live
	m.grow(cfg.AddressSpace)
	if cfg.Compression || cfg.Tiering {
		// Tiering needs the size-class model even when swap-outs are stored
		// raw: the deflated rung bins recompressed payloads by class.
		gran := cfg.Granularity
		if gran == nil {
			gran = compress.Four
		}
		model, err := compress.NewModel(gran)
		if err != nil {
			return nil, err
		}
		m.model = model
	}
	if cfg.LeapPrefetch {
		det, err := prefetch.New(cfg.AddressSpace)
		if err != nil {
			return nil, err
		}
		m.det = det
		met.prefetchDepth.Set(int64(det.Depth()))
	}
	return m, nil
}

// Name returns the configured system name.
func (m *Manager) Name() string { return m.cfg.Name }

// Stats returns a copy of the engine counters.
func (m *Manager) Stats() Stats { return m.stats }

// ResidentLen reports the current resident-set size (tests).
func (m *Manager) ResidentLen() int { return m.lruLen + len(m.window) }

// PrefetchDepth reports the adaptive prefetch depth, zero when Leap is off.
func (m *Manager) PrefetchDepth() int {
	if m.det == nil {
		return 0
	}
	return m.det.Depth()
}

// DetectorStats returns the stride detector's counters (zeroes when off).
func (m *Manager) DetectorStats() prefetch.Stats {
	if m.det == nil {
		return prefetch.Stats{}
	}
	return m.det.Stats()
}

// Touch accesses page (write marks it dirty), charging compute plus whatever
// the memory hierarchy costs. Clean resident pages keep their parked copy —
// the swap cache — so evicting them later costs nothing. ctx must carry the
// calling des.Proc.
func (m *Manager) Touch(ctx context.Context, page int, compute time.Duration, write bool) error {
	p, ok := des.FromContext(ctx)
	if !ok {
		panic("swap: context does not carry a des.Proc")
	}
	if page < 0 || page > math.MaxInt32 {
		return fmt.Errorf("%w: %d", ErrBadPage, page)
	}
	if page >= len(m.pages) {
		m.grow(page + 1)
	}
	m.stats.Accesses++
	m.met.accesses.Inc()
	if m.det != nil {
		m.det.Record(page)
	}
	r := &m.pages[page]
	if r.resident {
		m.lruMoveToFront(page)
		m.stats.Hits++
		m.met.hits.Inc()
		if write {
			r.dirty = true
		}
		m.notePrefetchHit(ctx, p, page)
		p.Sleep(compute + m.deps.DRAM.AccessTime(PageSize))
		return nil
	}
	if r.staged != noPage {
		// Staged in the send-buffer window: pull it back, no I/O.
		m.unstage(page)
		m.lruPushFront(page)
		r.dirty = true // staged pages were dirty
		m.trim(ctx, p)
		m.stats.Hits++
		m.met.hits.Inc()
		p.Sleep(compute + m.deps.DRAM.AccessTime(PageSize))
		return nil
	}
	m.stats.Faults++
	m.met.faults.Inc()
	ctx, sp := trace.Start(ctx, "swap.fault")
	sp.AnnotateInt("page", page)
	start := p.Now()
	if r.parked {
		if err := m.swapIn(ctx, p, page, r.ref); err != nil {
			sp.EndErr(err)
			return err
		}
	} else {
		m.stats.ColdFills++ // first touch: zero-fill
		r.dirty = true
	}
	if write {
		m.pages[page].dirty = true // not r: swapIn slept
	}
	if m.det != nil {
		m.leapPrefetch(ctx, p, page)
	}
	m.insertResident(ctx, p, page)
	m.maybeSweep(ctx, p)
	p.Sleep(compute + m.deps.DRAM.AccessTime(PageSize))
	m.met.faultLatency.Observe(p.Now() - start)
	m.met.residentPages.Set(int64(m.lruLen))
	sp.End()
	return nil
}

// grow extends the table to n records or twice its size, whichever is more.
func (m *Manager) grow(n int) {
	grown := make([]pageRec, max(n, 2*len(m.pages)))
	for i := copy(grown, m.pages); i < len(grown); i++ {
		grown[i].staged = noPage
	}
	m.pages = grown
}

// lruPushFront links a page that is not resident in as the most recent.
func (m *Manager) lruPushFront(page int) {
	r := &m.pages[page]
	r.resident, r.prev, r.next = true, noPage, m.head
	if m.head != noPage {
		m.pages[m.head].prev = int32(page)
	} else {
		m.tail = int32(page)
	}
	m.head = int32(page)
	m.lruLen++
}

// lruRemove unlinks a resident page.
func (m *Manager) lruRemove(page int) {
	r := &m.pages[page]
	if r.prev != noPage {
		m.pages[r.prev].next = r.next
	} else {
		m.head = r.next
	}
	if r.next != noPage {
		m.pages[r.next].prev = r.prev
	} else {
		m.tail = r.prev
	}
	r.resident = false
	m.lruLen--
}

// lruMoveToFront makes a resident page the most recent.
func (m *Manager) lruMoveToFront(page int) {
	m.lruRemove(page)
	m.lruPushFront(page)
}

// notePrefetchHit credits a hit on a prefetched page to the accuracy stats
// and the adaptive depth, and — every half-depth of credited hits — asks the
// detector to continue the stream, so a steady stride keeps the pipeline
// primed without having to fault again at the end of each prediction.
func (m *Manager) notePrefetchHit(ctx context.Context, p *des.Proc, page int) {
	if !m.pages[page].marked {
		return
	}
	m.pages[page].marked = false
	m.stats.PrefetchHits++
	m.met.prefetchHits.Inc()
	if m.det == nil {
		return
	}
	m.det.Hit()
	m.met.prefetchDepth.Set(int64(m.det.Depth()))
	m.contHits++
	if m.contHits >= max(1, m.det.Depth()/2) {
		m.contHits = 0
		m.leapPrefetch(ctx, p, page)
	}
}

// noteWaste charges an unused prefetched page evicted from the resident set
// against the accuracy stats and halves the adaptive depth.
func (m *Manager) noteWaste(victim int) {
	if !m.pages[victim].marked {
		return
	}
	m.pages[victim].marked = false
	m.stats.PrefetchWaste++
	m.met.prefetchWasted.Inc()
	if m.det != nil {
		m.det.Waste()
		m.met.prefetchDepth.Set(int64(m.det.Depth()))
	}
}

// unstage removes a page from the window.
func (m *Manager) unstage(page int) {
	idx := int(m.pages[page].staged)
	m.window = append(m.window[:idx], m.window[idx+1:]...)
	m.pages[page].staged = noPage
	for i := idx; i < len(m.window); i++ {
		m.pages[m.window[i]].staged = int32(i)
	}
}

// insertResident adds page to the LRU (or refreshes it, when a concurrent
// proactive pump already restored it) and trims the resident set.
func (m *Manager) insertResident(ctx context.Context, p *des.Proc, page int) {
	if m.pages[page].resident {
		m.lruMoveToFront(page)
		return
	}
	m.lruPushFront(page)
	m.trim(ctx, p)
}

// trim evicts LRU victims until the resident set fits, charging unused
// prefetched victims as waste. Staged pages occupy the send buffer, not the
// resident set, so they do not count against capacity here.
func (m *Manager) trim(ctx context.Context, p *des.Proc) {
	for m.lruLen > m.cfg.ResidentPages {
		m.noteWaste(m.evictBack())
	}
	if len(m.window) >= m.cfg.Window {
		m.flushWindow(ctx, p)
	}
}

// evictBack takes the LRU victim out of the resident set and returns it. A
// dirty victim stages into the send-buffer window for batch write-out; a
// clean one still has a valid parked copy and is dropped for free (the
// swap-cache effect).
func (m *Manager) evictBack() int {
	victim := int(m.tail)
	m.lruRemove(victim)
	r := &m.pages[victim]
	if r.parked && !r.dirty {
		m.stats.CleanDrops++
		return victim
	}
	r.dirty, r.staged = false, int32(len(m.window))
	m.window = append(m.window, victim)
	m.stats.SwapOuts++
	m.met.swapOuts.Inc()
	return victim
}

// EvictAll pushes every resident page out to the backing tiers — the cold
// restart scenario of Figure 9 (a server whose working set was entirely
// paged out recovering to peak throughput).
func (m *Manager) EvictAll(ctx context.Context) {
	p, ok := des.FromContext(ctx)
	if !ok {
		panic("swap: context does not carry a des.Proc")
	}
	for m.lruLen > 0 {
		// A forced cold restart is not the prefetcher's fault: clear marks
		// without charging waste.
		m.pages[m.evictBack()].marked = false
		if len(m.window) >= m.cfg.Window {
			m.flushWindow(ctx, p)
		}
	}
	m.flushWindow(ctx, p)
	m.met.residentPages.Set(int64(m.lruLen))
}

// Flush forces the staging window out (end of run, or single-page systems).
func (m *Manager) Flush(ctx context.Context) {
	p, ok := des.FromContext(ctx)
	if !ok {
		panic("swap: context does not carry a des.Proc")
	}
	m.flushWindow(ctx, p)
}

// layout makes pages the slots of b, all live, packed back to back at their
// stored sizes.
func (m *Manager) layout(b *batchInfo, pages []int, compressed bool) {
	b.slots = make([]slot, len(pages))
	off := 0
	for i, pg := range pages {
		size := PageSize
		if compressed {
			size = m.model.StoredSize(m.cfg.PageRatio(pg))
		}
		b.slots[i] = slot{page: pg, off: off, size: size, live: true}
		off += size
	}
	b.liveCount, b.total = len(pages), off
}

// flushWindow writes the staged pages as one batch entry to the first tier
// in tierOrder that takes it.
func (m *Manager) flushWindow(ctx context.Context, p *des.Proc) {
	if len(m.window) == 0 {
		return
	}
	b := &batchInfo{id: m.nextID, lastUse: m.stats.Faults}
	m.nextID++
	m.layout(b, m.window, m.cfg.Compression)
	// The batch copied the page numbers: the window starts over in place.
	for _, pg := range m.window {
		m.pages[pg].staged = noPage
	}
	m.window = m.window[:0]
	pages := len(b.slots)
	ctx, sp := trace.Start(ctx, "swap.out")
	sp.AnnotateInt("pages", pages)
	sp.AnnotateInt("bytes", b.total)
	outStart := p.Now()
	if m.cfg.Compression {
		p.Sleep(time.Duration(pages) * m.cfg.CompressCPU)
	}

	for _, t := range m.tierOrder() {
		if m.park(ctx, p, b, t) {
			break
		}
	}
	m.noteTier(b.where, pages)
	sp.AnnotateInt("tier", int(b.where))
	m.met.swapOutLatency.Observe(p.Now() - outStart)
	sp.End()

	// Drop any stale older copies of these pages and point them at the new
	// batch, which joins the live ring as its newest.
	for i := range b.slots {
		pg := b.slots[i].page
		if m.pages[pg].parked {
			m.releaseSlot(ctx, m.pages[pg].ref)
		}
		m.pages[pg].parked, m.pages[pg].ref = true, slotRef{b: b, slot: i}
	}
	b.older, b.newer = m.live.older, &m.live
	b.older.newer, m.live.older = b, b
}

// swapIn faults page in from its parked batch, prefetching up to Readahead
// live pages of the same batch in the same request (PBS). Under Leap the
// in-batch readahead is off — the stride detector picks the prefetch set in
// leapPrefetch instead.
func (m *Manager) swapIn(ctx context.Context, p *des.Proc, page int, ref slotRef) (err error) {
	ctx, sp := trace.Start(ctx, "swap.in")
	sp.AnnotateInt("page", page)
	defer func() { sp.EndErr(err) }()
	b := ref.b
	if !ref.live() {
		return fmt.Errorf("%w: page %d", ErrNoBacking, page)
	}
	// Pick the slots this request brings in: the faulted one plus, under
	// PBS/readahead, the following live slots of the batch.
	slots := append(m.inSlots[:0], ref.slot)
	if m.cfg.Readahead > 1 && m.det == nil {
		// Classic readahead: only slots after the faulted one (batches are
		// laid out in eviction order, so later slots are the pages a scan
		// will touch next); pages already in memory are skipped.
		for s := ref.slot + 1; s < len(b.slots) && len(slots) < m.cfg.Readahead; s++ {
			// Skip pages already in memory: their live slots are just the
			// swap cache backing a clean resident copy.
			r := &m.pages[b.slots[s].page]
			if b.slots[s].live && !r.resident && r.staged == noPage {
				slots = append(slots, s)
			}
		}
	}
	m.inSlots = slots
	if err := m.readSlots(ctx, p, b, slots); err != nil {
		return err
	}
	m.stats.SwapIns++
	m.met.swapIns.Inc()
	sp.AnnotateInt("tier", int(b.where))
	sp.AnnotateInt("slots", len(slots))
	sp.AnnotateInt("prefetched", len(slots)-1)

	// The pages come in as clean copies: their slots stay live in the batch
	// (swap cache), so a later clean eviction is free. The read-ahead must
	// not recursively evict: trim happens in insertResident for the faulted
	// page.
	m.pages[page].dirty = false
	for _, s := range slots[1:] {
		m.admitPrefetched(b.slots[s].page)
	}
	// Hotness: a demand fetch refreshes the batch, and enough of them in a
	// row climb it one rung back up the ladder.
	b.lastUse = m.stats.Faults
	if m.cfg.Tiering {
		b.touches++
		if b.touches >= promoteTouches {
			b.touches = 0
			m.promote(ctx, p, b)
		}
	}
	return nil
}

// admitPrefetched enters a page just read ahead of demand into the resident
// set as a clean, marked copy — the one admission under PBS read-ahead, Leap
// and the proactive pump. It reports false, and counts nothing, when the
// page is already resident: another process restored it while this one
// slept in the transfer.
func (m *Manager) admitPrefetched(pg int) bool {
	r := &m.pages[pg]
	if r.resident {
		return false
	}
	r.dirty, r.marked = false, true
	m.lruPushFront(pg)
	m.stats.Prefetched++
	m.met.prefetched.Inc()
	return true
}

// leapPrefetch asks the stride detector for a trend at page and fetches the
// predicted pages from whatever batches hold them. Unlike PBS's in-batch
// readahead, the prediction crosses batch boundaries: predicted slots are
// grouped per batch in first-predicted order and each group rides one
// request. Fetched pages enter the resident set as clean marked copies, and
// the set is trimmed afterwards so a deep prediction cannot overflow it.
func (m *Manager) leapPrefetch(ctx context.Context, p *des.Proc, page int) {
	preds := m.det.Predict(page)
	if len(preds) == 0 {
		return
	}
	refs := m.leapRefs[:0]
	for _, pg := range preds {
		// In memory already, or never swapped out (cold): nothing to fetch.
		if r := &m.pages[pg]; !r.resident && r.staged == noPage && r.parked && r.ref.live() {
			refs = append(refs, r.ref)
		}
	}
	m.leapRefs = refs
	// Each batch's slots ride one request, batches in first-predicted order;
	// a ref that has ridden is marked by a negative slot. A prediction is at
	// most a few dozen pages, so the rescan per batch costs less than a map.
	for i := range refs {
		if refs[i].slot < 0 {
			continue
		}
		b := refs[i].b
		slots := m.leapSlots[:0]
		for j := i; j < len(refs); j++ {
			if refs[j].b == b && refs[j].slot >= 0 {
				slots = append(slots, refs[j].slot)
				refs[j].slot = -1
			}
		}
		m.leapSlots = slots
		pctx, sp := trace.Start(ctx, "swap.prefetch")
		sp.AnnotateInt("trigger", page)
		sp.AnnotateInt("pages", len(slots))
		sp.AnnotateInt("tier", int(b.where))
		if err := m.readSlots(pctx, p, b, slots); err != nil {
			sp.EndErr(err)
			continue
		}
		for _, s := range slots {
			m.admitPrefetched(b.slots[s].page)
		}
		sp.End()
	}
	m.trim(ctx, p)
}

// ProactiveSwapIn restores up to maxPages parked pages without waiting for
// faults — FastSwap's PBS (§IV.H, Figure 9): after memory pressure subsides,
// a background pump streams recently swapped-out batches back in so the
// application recovers to peak throughput instead of paying one fault per
// page. It reads the most recently parked batches first (they approximate
// the hottest data) and stops when the resident set is full. It returns the
// number of pages restored; zero means there is nothing (or no room) left.
//
// Run it from its own simulation process so its transfer time overlaps the
// foreground workload, as the real background thread's would.
func (m *Manager) ProactiveSwapIn(ctx context.Context, maxPages int) int {
	p, ok := des.FromContext(ctx)
	if !ok {
		panic("swap: context does not carry a des.Proc")
	}
	restored := 0
	for restored < maxPages {
		room := m.cfg.ResidentPages - m.lruLen
		if room <= 0 {
			break
		}
		b := m.newestLiveBatch()
		if b == nil {
			break
		}
		// Snapshot what to restore before sleeping: the foreground can fault
		// pages of this batch, or re-lay its slots, while the transfer is in
		// flight.
		limit := min(room, maxPages-restored, b.liveCount)
		slots := make([]int, 0, limit)
		pages := make([]int, 0, limit)
		for s, sl := range b.slots {
			if len(slots) == limit {
				break
			}
			if sl.live && !m.pages[sl.page].resident {
				slots = append(slots, s)
				pages = append(pages, sl.page)
			}
		}
		if len(slots) == 0 {
			break
		}
		if err := m.readSlots(ctx, p, b, slots); err != nil {
			return restored
		}
		for _, pg := range pages {
			if m.lruLen >= m.cfg.ResidentPages {
				break
			}
			if m.admitPrefetched(pg) {
				restored++
			}
		}
	}
	return restored
}

// newestLiveBatch returns the most recently created batch that still has a
// live slot whose page is not resident.
func (m *Manager) newestLiveBatch() *batchInfo {
	for b := m.live.older; b != &m.live; b = b.older {
		for _, sl := range b.slots {
			if sl.live && !m.pages[sl.page].resident {
				return b
			}
		}
	}
	return nil
}

// releaseSlot retires one slot of a batch (page rewritten elsewhere).
func (m *Manager) releaseSlot(ctx context.Context, ref slotRef) {
	b := ref.b
	if !ref.live() {
		return
	}
	b.slots[ref.slot].live = false
	b.liveCount--
	m.noteTier(b.where, -1)
	if b.liveCount == 0 {
		m.releaseBatch(ctx, b)
	}
}

// releaseBatch unlinks a batch whose last slot died and frees its entry.
func (m *Manager) releaseBatch(ctx context.Context, b *batchInfo) {
	b.older.newer, b.newer.older = b.newer, b.older
	switch b.where {
	case tierShared, tierRemote, tierRemoteZ:
		_ = m.deps.VS.Delete(ctx, pagetable.EntryID(b.id))
	case tierDisk:
		// Swap-device slots are reused implicitly by the bump allocator's
		// successor batches; nothing to free.
	}
}
