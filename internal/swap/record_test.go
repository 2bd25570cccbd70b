package swap

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"godm/internal/des"
	"godm/internal/memdev"
)

// liveBatches walks the live ring, oldest first.
func liveBatches(m *Manager) []*batchInfo {
	var out []*batchInfo
	for b := m.live.newer; b != &m.live; b = b.newer {
		out = append(out, b)
	}
	return out
}

// parkedPages lists the pages that have a parked copy, ascending.
func parkedPages(m *Manager) []int {
	var out []int
	for pg := range m.pages {
		if m.pages[pg].parked {
			out = append(out, pg)
		}
	}
	return out
}

// lruOrder walks the resident set, most recent first.
func lruOrder(m *Manager) []int {
	var out []int
	for pg := m.head; pg != noPage && len(out) <= len(m.pages); pg = m.pages[pg].next {
		out = append(out, int(pg))
	}
	return out
}

// checkRecord checks what must hold of the page table, the LRU threaded
// through it and the live-batch list whenever no engine call is in flight.
func checkRecord(m *Manager) error {
	// Walking head → tail visits exactly the resident pages, lruLen of them,
	// with consistent back links.
	order := lruOrder(m)
	if len(order) != m.lruLen {
		return fmt.Errorf("LRU walk visits %d pages, lruLen %d", len(order), m.lruLen)
	}
	prev := int32(noPage)
	for _, pg := range order {
		if r := m.pages[pg]; !r.resident || r.prev != prev {
			return fmt.Errorf("page %d on the LRU: resident %v, prev %d, want prev %d", pg, r.resident, r.prev, prev)
		}
		prev = int32(pg)
	}
	if m.tail != prev {
		return fmt.Errorf("tail %d, the walk ended at %d", m.tail, prev)
	}
	live := map[*batchInfo]bool{}
	var pop [tierCount]int64
	last := &m.live
	for _, b := range liveBatches(m) {
		if b.older != last || (last != &m.live && last.id >= b.id) {
			return fmt.Errorf("batch %d out of place in the live ring", b.id)
		}
		n := 0
		for s, sl := range b.slots {
			if !sl.live {
				continue
			}
			n++
			// Every live slot is its page's parked copy.
			if r := m.pages[sl.page]; !r.parked || r.ref != (slotRef{b: b, slot: s}) {
				return fmt.Errorf("batch %d slot %d holds page %d, whose ref is %+v (parked %v)", b.id, s, sl.page, r.ref, r.parked)
			}
		}
		if n == 0 || n != b.liveCount {
			return fmt.Errorf("batch %d on the live ring counts %d live slots, holds %d", b.id, b.liveCount, n)
		}
		pop[b.where] += int64(n)
		live[b], last = true, b
	}
	if m.live.older != last {
		return fmt.Errorf("the live ring does not close on its newest batch")
	}
	if pop != m.tierPop {
		return fmt.Errorf("tierPop %v, live slots per tier %v", m.tierPop, pop)
	}
	residents, staged := 0, 0
	for pg, r := range m.pages {
		if r.resident {
			residents++
		}
		if r.staged != noPage {
			staged++
			if r.resident {
				return fmt.Errorf("page %d both resident and staged", pg)
			}
			if int(r.staged) >= len(m.window) || m.window[r.staged] != pg {
				return fmt.Errorf("page %d staged at %d, window %v", pg, r.staged, m.window)
			}
		}
		if (r.dirty || r.marked) && !r.resident {
			return fmt.Errorf("page %d dirty %v marked %v while not resident", pg, r.dirty, r.marked)
		}
		// Every parked ref points at a live slot of a live batch naming it.
		if r.parked && (!live[r.ref.b] || !r.ref.live() || r.ref.b.slots[r.ref.slot].page != pg) {
			return fmt.Errorf("page %d parked with a stale ref %+v", pg, r.ref)
		}
	}
	if residents != m.lruLen || staged != len(m.window) {
		return fmt.Errorf("%d resident records, lruLen %d; %d staged records, window of %d", residents, m.lruLen, staged, len(m.window))
	}
	return nil
}

// refModel is the page state the engine kept before the dense record —
// container/list and one map per attribute — with the engine's rules for
// moving pages between resident, staged and parked. It does no I/O and makes
// no prefetch decision: which pages a step admitted ahead of demand is read
// off the engine and handed in, and from there on the LRU order, the victims,
// the window, every flag and the counters below are the model's own.
type refModel struct {
	cfg      Config
	lru      *list.List
	resident map[int]*list.Element
	pending  map[int]int
	window   []int
	dirty    map[int]bool
	parked   map[int]bool
	mark     map[int]bool
	flushed  [][]int // every window flushed, in order: the victim order
	st       Stats
}

func newRefModel(cfg Config) *refModel {
	return &refModel{cfg: cfg, lru: list.New(), resident: map[int]*list.Element{}, pending: map[int]int{},
		dirty: map[int]bool{}, parked: map[int]bool{}, mark: map[int]bool{}}
}

func (r *refModel) admit(pages []int) {
	for _, pg := range pages {
		delete(r.dirty, pg)
		r.resident[pg] = r.lru.PushFront(pg)
		r.mark[pg] = true
		r.st.Prefetched++
	}
}

func (r *refModel) evictBack(chargeWaste bool) {
	victim := r.lru.Remove(r.lru.Back()).(int)
	delete(r.resident, victim)
	if r.mark[victim] && chargeWaste {
		r.st.PrefetchWaste++
	}
	delete(r.mark, victim)
	if r.parked[victim] && !r.dirty[victim] {
		r.st.CleanDrops++
		return
	}
	delete(r.dirty, victim)
	r.pending[victim] = len(r.window)
	r.window = append(r.window, victim)
	r.st.SwapOuts++
}

func (r *refModel) flush() {
	if len(r.window) == 0 {
		return
	}
	for _, pg := range r.window {
		r.parked[pg] = true
	}
	r.flushed = append(r.flushed, r.window)
	r.window, r.pending = nil, map[int]int{}
}

func (r *refModel) trim() {
	for r.lru.Len() > r.cfg.ResidentPages {
		r.evictBack(true)
	}
	if len(r.window) >= r.cfg.Window {
		r.flush()
	}
}

func (r *refModel) evictAll() {
	for r.lru.Len() > 0 {
		r.evictBack(false)
		if len(r.window) >= r.cfg.Window {
			r.flush()
		}
	}
	r.flush()
}

func (r *refModel) touch(page int, write bool, admitted []int) {
	r.st.Accesses++
	if el, ok := r.resident[page]; ok {
		r.lru.MoveToFront(el)
		r.st.Hits++
		if write {
			r.dirty[page] = true
		}
		if r.mark[page] {
			delete(r.mark, page)
			r.st.PrefetchHits++
		}
		if len(admitted) > 0 { // Leap continuing the stream
			r.admit(admitted)
			r.trim()
		}
		return
	}
	if idx, ok := r.pending[page]; ok {
		r.window = append(r.window[:idx], r.window[idx+1:]...)
		delete(r.pending, page)
		for pg, i := range r.pending {
			if i > idx {
				r.pending[pg] = i - 1
			}
		}
		r.resident[page] = r.lru.PushFront(page)
		r.dirty[page] = true
		r.trim()
		r.st.Hits++
		return
	}
	r.st.Faults++
	if r.parked[page] {
		r.st.SwapIns++
		delete(r.dirty, page)
	} else {
		r.st.ColdFills++
		r.dirty[page] = true
	}
	if write {
		r.dirty[page] = true
	}
	r.admit(admitted)
	if r.cfg.LeapPrefetch && len(admitted) > 0 {
		r.trim() // Leap trims after its admissions; read-ahead leaves it to the fault
	}
	r.resident[page] = r.lru.PushFront(page)
	r.trim()
}

// modelled keeps the counters the model derives; the rest (tiers, bytes,
// ladder moves) come from I/O it does not do.
func modelled(s Stats) Stats {
	return Stats{Accesses: s.Accesses, Hits: s.Hits, Faults: s.Faults, ColdFills: s.ColdFills, SwapOuts: s.SwapOuts,
		SwapIns: s.SwapIns, CleanDrops: s.CleanDrops, Prefetched: s.Prefetched, PrefetchHits: s.PrefetchHits,
		PrefetchWaste: s.PrefetchWaste}
}

// TestRecordMatchesListAndMaps drives the engine and refModel with one seeded
// sequence of touches, forced evictions, flushes and proactive swap-ins under
// every preset, and after every step compares the LRU order, the window, each
// page's flags, the batches flushed (the victim order) and the counters, and
// checks the record's own invariants.
func TestRecordMatchesListAndMaps(t *testing.T) {
	// The resident set outsizes the deepest prediction (64) and the widest
	// read-ahead (16), so a page admitted in a step is still resident — and
	// visible to the test — when the step ends.
	const space, resident, steps = 256, 80, 3000
	ratio := flatRatio(2)
	presets := []Config{
		FastSwap(resident, 9, true, ratio),
		Leap(resident, 5, space, ratio),
		Tiered(resident, 5, space, ratio),
		Linux(resident),
		Zswap(resident, ratio),
		Infiniswap(resident),
		XMemPod(resident, 9, true, ratio),
		NBDX(resident),
	}
	for _, cfg := range presets {
		t.Run(cfg.Name, func(t *testing.T) {
			r := newRig(t, 16<<20, 16<<20)
			deps := r.deps
			deps.SSD = memdev.NewSSD(r.env, "flash", memdev.DefaultParams())
			m, err := NewManager(cfg, deps)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefModel(cfg)
			r.env.Go("driver", func(p *des.Proc) {
				ctx := des.NewContext(context.Background(), p)
				rng := rand.New(rand.NewSource(20))
				pg, stride := 0, 1
				for step := 0; step < steps; step++ {
					nextID, prefetched := m.nextID, m.stats.Prefetched
					op := "touch"
					touched, write := -1, false
					switch x := rng.Intn(100); {
					case x == 0:
						op = "evict-all"
						m.EvictAll(ctx)
					case x < 3:
						op = "flush"
						m.Flush(ctx)
					case x < 6:
						op = "proactive"
						m.ProactiveSwapIn(ctx, 1+rng.Intn(24))
					default:
						switch y := rng.Intn(10); {
						case y == 0:
							pg, stride = rng.Intn(space), []int{1, 1, 2, -1}[rng.Intn(4)] // jump, new stride
						case y == 1:
							pg = rng.Intn(32) // hot set
						default:
							pg = ((pg+stride)%space + space) % space
						}
						touched, write = pg, rng.Intn(3) == 0
						if err := m.Touch(ctx, pg, time.Microsecond, write); err != nil {
							t.Errorf("step %d: Touch(%d): %v", step, pg, err)
							return
						}
					}
					// What the step admitted ahead of demand: the newly marked
					// pages, each pushed on the front in its turn.
					var admitted []int
					for _, q := range lruOrder(m) {
						if m.pages[q].marked && !ref.mark[q] {
							admitted = append([]int{q}, admitted...)
						}
					}
					if got := m.stats.Prefetched - prefetched; got != int64(len(admitted)) {
						t.Errorf("step %d (%s): %d pages prefetched, %d still marked: the test's sizes let one be evicted in its own step",
							step, op, got, len(admitted))
						return
					}
					switch op {
					case "evict-all":
						ref.evictAll()
					case "flush":
						ref.flush()
					case "proactive":
						ref.admit(admitted)
					default:
						ref.touch(touched, write, admitted)
					}

					fail := func(format string, args ...any) {
						t.Errorf("step %d (%s %d): %s", step, op, touched, fmt.Sprintf(format, args...))
					}
					if err := checkRecord(m); err != nil {
						fail("%v", err)
						return
					}
					var want []int
					for el := ref.lru.Front(); el != nil; el = el.Next() {
						want = append(want, el.Value.(int))
					}
					if got := lruOrder(m); !reflect.DeepEqual(got, want) {
						fail("LRU order %v, model %v", got, want)
						return
					}
					if len(m.window) != len(ref.window) || (len(m.window) > 0 && !reflect.DeepEqual(m.window, ref.window)) {
						fail("window %v, model %v", m.window, ref.window)
						return
					}
					for q, rec := range m.pages {
						idx, staged := ref.pending[q]
						if rec.dirty != ref.dirty[q] || rec.marked != ref.mark[q] || rec.parked != ref.parked[q] ||
							(rec.staged != noPage) != staged || (staged && int(rec.staged) != idx) {
							fail("page %d: record %+v; model dirty %v mark %v parked %v staged %v at %d",
								q, rec, ref.dirty[q], ref.mark[q], ref.parked[q], staged, idx)
							return
						}
					}
					// The batches this step created hold the windows the model
					// flushed, in order.
					var made [][]int
					for _, b := range liveBatches(m) {
						if b.id >= nextID {
							var pages []int
							for _, sl := range b.slots {
								pages = append(pages, sl.page)
							}
							made = append(made, pages)
						}
					}
					if flushed := ref.flushed[nextID:]; len(made) != len(flushed) || (len(made) > 0 && !reflect.DeepEqual(made, flushed)) {
						fail("flushed %v, model %v", made, flushed)
						return
					}
					if got := modelled(m.Stats()); got != ref.st {
						fail("stats %+v, model %+v", got, ref.st)
						return
					}
				}
			})
			if err := r.env.Run(); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.SwapOuts == 0 || st.SwapIns == 0 || st.CleanDrops == 0 {
				t.Errorf("the sequence left a path idle: %+v", st)
			}
			if cfg.Readahead > 1 || cfg.LeapPrefetch {
				if st.PrefetchHits == 0 || st.PrefetchWaste == 0 {
					t.Errorf("prefetch never both hit and wasted: %+v", st)
				}
			}
		})
	}
}

// TestTableGrowsUnderFaults pins the growth rule (see pageRec): with no
// AddressSpace the table is grown by the faults themselves — downwards from a
// high page, then in ever wider strides while earlier pages fault back in, so
// that it moves under live LRU links, staged pages and parked refs — and the
// run must be indistinguishable from one on a table sized up front. A page
// that cannot be one is refused, not indexed.
func TestTableGrowsUnderFaults(t *testing.T) {
	const top = 1 << 16
	var trace []int
	for pg := 300; pg >= 0; pg-- {
		trace = append(trace, pg)
	}
	for i, pg := 0, 301; pg < top; i, pg = i+1, pg+37*(i+1) {
		trace = append(trace, pg, i%301, pg-1, (7*i)%301)
	}
	for i := len(trace) - 1; i >= 0; i -= 3 {
		trace = append(trace, trace[i]) // back through all of it
	}
	type outcome struct {
		stats Stats
		done  time.Duration
	}
	run := func(addressSpace int) outcome {
		r := newRig(t, 16<<20, 16<<20)
		cfg := FastSwap(32, 9, true, flatRatio(2))
		cfg.AddressSpace = addressSpace
		m, err := NewManager(cfg, r.deps)
		if err != nil {
			t.Fatal(err)
		}
		var out outcome
		r.env.Go("driver", func(p *des.Proc) {
			ctx := des.NewContext(context.Background(), p)
			if err := m.Touch(ctx, -1, 0, false); !errors.Is(err, ErrBadPage) {
				t.Errorf("Touch(-1) = %v, want ErrBadPage", err)
			}
			for i, pg := range trace {
				if err := m.Touch(ctx, pg, time.Microsecond, i%2 == 0); err != nil {
					t.Errorf("Touch(%d): %v", pg, err)
					return
				}
				if err := checkRecord(m); err != nil {
					t.Errorf("after Touch(%d): %v", pg, err)
					return
				}
			}
			out = outcome{m.Stats(), p.Now()}
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		if addressSpace == 0 && len(m.pages) >= 2*top {
			t.Errorf("table grew to %d records for pages below %d", len(m.pages), top)
		}
		return out
	}
	grown, sized := run(0), run(top)
	if grown.stats.Accesses != int64(len(trace)) || grown.stats.SwapIns == 0 || grown.stats.Prefetched == 0 {
		t.Errorf("the trace did not page: %+v", grown.stats)
	}
	if grown != sized {
		t.Errorf("grown table: %+v\nsized up front: %+v", grown, sized)
	}
}
