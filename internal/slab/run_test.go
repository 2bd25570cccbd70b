package slab

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// blocks expands runs into their handles, in order.
func blocks(runs []Run) []Handle {
	var hs []Handle
	for _, r := range runs {
		for r.N > 0 {
			h, _ := r.Pop()
			hs = append(hs, h)
		}
	}
	return hs
}

// poolModel is the reference the property test checks a pool against: the set
// of blocks that are allocated, and nothing else. What the pool should hand
// out next is worked out from it by brute force, so the bitmap search, the
// partial lists and the byte accounting are all checked against code that
// shares none of their structure.
type poolModel struct {
	t    *testing.T
	p    *Pool
	live map[Handle]bool
}

// free reports whether block i of slab s is free in the model.
func (m *poolModel) free(s *slabRegion, i int) bool {
	return !m.live[Handle{SlabID: s.id, Offset: i * s.class, Class: s.class}]
}

// slabsOf returns shard si's slabs of class in id order.
func (m *poolModel) slabsOf(si, class int) []*slabRegion {
	var out []*slabRegion
	for _, s := range m.p.shards[si].slabs {
		if s.class == class {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b *slabRegion) int { return a.id - b.id })
	return out
}

// lowestRun is the oracle for where a run of n must land: the lowest-id slab
// of the shard with n free blocks in a row, and the first such row.
func (m *poolModel) lowestRun(si, class, n int) (Handle, bool) {
	for _, s := range m.slabsOf(si, class) {
		row := 0
		for i := 0; i < s.blocks; i++ {
			if !m.free(s, i) {
				row = 0
				continue
			}
			if row++; row == n {
				return Handle{SlabID: s.id, Offset: (i - n + 1) * class, Class: class}, true
			}
		}
	}
	return Handle{}, false
}

// freeBlocks counts the free blocks of class in every registered slab.
func (m *poolModel) freeBlocks(class int) (n int) {
	for si := range m.p.shards {
		for _, s := range m.slabsOf(si, class) {
			for i := 0; i < s.blocks; i++ {
				if m.free(s, i) {
					n++
				}
			}
		}
	}
	return n
}

// registrable is how many more slabs the budget allows.
func (m *poolModel) registrable() int {
	return int((m.p.maxBytes.Load() - m.p.registeredBytes.Load()) / int64(m.p.slabSize))
}

// allocRun runs one AllocRun — for n == 0 one AllocHint, which must behave as
// a run of one — and checks everything the model can say about its outcome.
func (m *poolModel) allocRun(class, n int, hint uint64) {
	t, p := m.t, m.p
	t.Helper()
	single := n == 0
	n = max(n, 1)
	perSlab := p.slabSize / class
	home := p.shardFor(class, hint)
	wantAt, held := m.lowestRun(home, class, n)
	fits := m.freeBlocks(class)+m.registrable()*perSlab >= n
	canRegister := m.registrable() > 0
	known := map[int]bool{}
	for id := range p.shards[home].slabs {
		known[id] = true
	}
	before := p.Stats()

	var few [2]Run
	runs, err := few[:0], error(nil)
	if single {
		var h Handle
		if h, err = p.AllocHint(class, hint); err == nil {
			runs = append(runs, Run{First: h, N: 1})
			runs[0].Region, _ = p.GlobalOffset(h)
		}
	} else {
		runs, err = p.AllocRun(class, n, hint, runs)
	}
	if !fits {
		// Exactly when a loop of single-block allocations would have run dry.
		if !errors.Is(err, ErrNoSpace) || len(runs) != 0 {
			t.Fatalf("AllocRun(%d, %d) with too few blocks: %d runs, err %v; want ErrNoSpace and nothing", class, n, len(runs), err)
		}
		after := p.Stats()
		if n > perSlab {
			// A whole-slab run may have registered its slab before the rest
			// turned out not to fit; the blocks are all back.
			before.Slabs, before.RegisteredBytes, before.Registrations = after.Slabs, after.RegisteredBytes, after.Registrations
		}
		if after != before {
			t.Fatalf("failed AllocRun(%d, %d) moved the pool: %+v, was %+v", class, n, after, before)
		}
		return
	}
	if err != nil {
		t.Fatalf("AllocRun(%d, %d): %v, though %d blocks are free and %d slabs registrable", class, n, err, m.freeBlocks(class), m.registrable())
	}
	total := 0
	for _, r := range runs {
		total += r.N
		if r.N <= 0 || r.First.Class != class || r.First.Offset%class != 0 || r.First.Offset+r.N*class > perSlab*class {
			t.Fatalf("AllocRun(%d, %d) returned the malformed run %+v", class, n, r)
		}
	}
	if total != n {
		t.Fatalf("AllocRun(%d, %d) returned %d blocks in %+v", class, n, total, runs)
	}
	if n <= perSlab && (held || canRegister) {
		// The home shard holds a run or can register one: one contiguous
		// ascending run, the lowest there is.
		if len(runs) != 1 {
			t.Fatalf("AllocRun(%d, %d) came in %d pieces %+v though the home shard had room for a run", class, n, len(runs), runs)
		}
		got := runs[0].First
		if held && got != wantAt {
			t.Fatalf("AllocRun(%d, %d) took %+v, the lowest run is %+v", class, n, got, wantAt)
		}
		if !held && (known[got.SlabID] || got.Offset != 0) {
			t.Fatalf("AllocRun(%d, %d) took %+v, want the start of a fresh slab", class, n, got)
		}
	}
	for _, r := range runs {
		if p.backing != nil {
			if off, err := p.GlobalOffset(r.First); err != nil || off != r.Region {
				t.Fatalf("run %+v: GlobalOffset of its first block = %d, %v", r, off, err)
			}
		}
	}
	for _, h := range blocks(runs) {
		if m.live[h] {
			t.Fatalf("AllocRun(%d, %d) handed out %+v, which is allocated", class, n, h)
		}
		m.live[h] = true
	}
}

// check compares the pool's accounting and reverse map with the model.
func (m *poolModel) check() {
	t, p := m.t, m.p
	t.Helper()
	st := p.Stats()
	var liveBytes int64
	for h := range m.live {
		liveBytes += int64(h.Class)
	}
	if st.LiveBlocks != len(m.live) || st.LiveBytes != liveBytes {
		t.Fatalf("Stats says %d blocks, %d bytes live; the model holds %d, %d", st.LiveBlocks, st.LiveBytes, len(m.live), liveBytes)
	}
	if got := p.FreeBytes(); got != st.MaxBytes-st.LiveBytes {
		t.Fatalf("FreeBytes = %d, MaxBytes - LiveBytes = %d", got, st.MaxBytes-st.LiveBytes)
	}
	if p.backing == nil {
		return
	}
	for si := range p.shards {
		for _, s := range p.shards[si].slabs {
			for i := 0; i < s.blocks; i++ {
				h := Handle{SlabID: s.id, Offset: i * s.class, Class: s.class}
				got, err := p.HandleAt(int64(s.base + h.Offset))
				if m.live[h] {
					if off, _ := p.GlobalOffset(h); err != nil || got != h || off != int64(s.base+h.Offset) {
						t.Fatalf("live block %+v: HandleAt(%d) = %+v, %v", h, off, got, err)
					}
				} else if !errors.Is(err, ErrBadHandle) {
					t.Fatalf("free block %+v: HandleAt = %+v, %v; want ErrBadHandle", h, got, err)
				}
			}
		}
	}
}

// TestPoolMatchesModel drives random Alloc / AllocRun / Free / FreeAll /
// EvictLRU / ShrinkEmpty / ShrinkBudget / Grow sequences against poolModel,
// single-lock and sharded, backed and not: no block is handed out twice, every
// run is the lowest contiguous one whenever its shard holds or can register
// one, exhaustion is all-or-nothing and strikes exactly when the blocks are
// not there, and after every step Stats, FreeBytes and — over a backing
// buffer — HandleAt agree with the model.
func TestPoolMatchesModel(t *testing.T) {
	const slabSize, slabs = 4096, 12
	classes := []int{512, 1024, 1536, 4096} // 1536 leaves a tail no block covers
	for _, shards := range []int{1, 8} {
		for _, backed := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/backed=%v", shards, backed), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					opts := []Option{WithSlabSize(slabSize), WithShards(shards)}
					p, err := NewPool("model", slabs*slabSize, opts...)
					if backed {
						p, err = NewPoolOver("model", make([]byte, slabs*slabSize), opts...)
					}
					if err != nil {
						t.Fatal(err)
					}
					m := &poolModel{t: t, p: p, live: map[Handle]bool{}}
					rng := rand.New(rand.NewSource(seed))
					owed := int64(0) // budget shrunk away and not yet grown back
					pick := func(n int) []Handle {
						all := make([]Handle, 0, len(m.live))
						for h := range m.live {
							all = append(all, h)
						}
						slices.SortFunc(all, func(a, b Handle) int {
							return cmp.Or(cmp.Compare(a.SlabID, b.SlabID), cmp.Compare(a.Offset, b.Offset))
						})
						rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
						return all[:min(n, len(all))]
					}
					for step := 0; step < 600; step++ {
						class := classes[rng.Intn(len(classes))]
						switch op := rng.Intn(20); {
						case op < 4:
							m.allocRun(class, 0, rng.Uint64())
						case op < 10:
							m.allocRun(class, 1+rng.Intn(2*slabSize/class+2), rng.Uint64())
						case op < 13:
							for _, h := range pick(1) {
								if err := p.Free(h); err != nil {
									t.Fatalf("Free(%+v): %v", h, err)
								}
								delete(m.live, h)
								if err := p.Free(h); !errors.Is(err, ErrBadHandle) {
									t.Fatalf("second Free(%+v) = %v, want ErrBadHandle", h, err)
								}
							}
						case op < 16:
							hs := pick(1 + rng.Intn(24))
							if err := p.FreeAll(hs); err != nil {
								t.Fatalf("FreeAll: %v", err)
							}
							for _, h := range hs {
								delete(m.live, h)
							}
							if len(hs) > 0 {
								if err := p.FreeAll(hs[:1]); !errors.Is(err, ErrBadHandle) {
									t.Fatalf("FreeAll of a freed block = %v, want ErrBadHandle", err)
								}
							}
						case op < 17:
							victims, err := p.EvictLRU()
							if errors.Is(err, ErrEmpty) {
								continue
							}
							var want []Handle
							for h := range m.live {
								if len(victims) > 0 && h.SlabID == victims[0].SlabID {
									want = append(want, h)
								}
							}
							slices.SortFunc(want, func(a, b Handle) int { return a.Offset - b.Offset })
							if err != nil || !slices.Equal(victims, want) {
								t.Fatalf("EvictLRU = %+v, %v; the model's blocks of that slab are %+v", victims, err, want)
							}
							for _, h := range victims {
								delete(m.live, h)
							}
						case op < 18:
							owed += p.ShrinkEmpty(int64(1+rng.Intn(3)) * slabSize)
						case op < 19:
							owed += p.ShrinkBudget(int64(1+rng.Intn(3)) * slabSize)
						default:
							p.Grow(owed)
							owed = 0
						}
						m.check()
					}
				}
			})
		}
	}
}

// TestFreeOrderDoesNotMatter: a window's blocks, freed in any order and with
// another allocator's blocks coming and going in the same slab meanwhile,
// leave the slab as it was — the next window gets the same run. A free list
// kept as a stack hands the shuffle back instead, and the region never heals.
func TestFreeOrderDoesNotMatter(t *testing.T) {
	p, err := NewPoolOver("heal", make([]byte, 8<<20), WithSlabSize(1<<20), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	const class, window, hint = 2048, 64, 0xC0FFEE
	below, err := p.AllocRun(class, 7, hint, nil) // a neighbour that stays
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var first Run
	for round := 0; round < 20; round++ {
		runs, err := p.AllocRun(class, window, hint, nil)
		if err != nil || len(runs) != 1 || runs[0].N != window {
			t.Fatalf("round %d: AllocRun = %+v, %v; want one run of %d", round, runs, err, window)
		}
		if round == 0 {
			first = runs[0]
			if want := below[0].Region + 7*class; first.Region != want {
				t.Fatalf("the first window starts at %d, want %d: right behind its neighbour", first.Region, want)
			}
		} else if runs[0] != first {
			t.Fatalf("round %d: the window landed at %+v, the first one at %+v", round, runs[0], first)
		}
		hs := blocks(runs)
		rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
		for i, h := range hs {
			if i%9 == 0 { // the other allocator, interleaved
				other, err := p.AllocHint(class, hint)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Free(other); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Free(h); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAllocRunLargerThanASlab: a run longer than a slab comes as whole-slab
// runs and a remainder, fresh slabs first; with the budget spent it is pieced
// together from what is free, and one block too many fails and takes nothing.
func TestAllocRunLargerThanASlab(t *testing.T) {
	const slabSize, class = 4096, 1024 // four blocks a slab
	p, err := NewPool("big", 4*slabSize, WithSlabSize(slabSize), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := p.AllocRun(class, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || runs[0].N != 4 || runs[1].N != 4 || runs[2].N != 2 {
		t.Fatalf("AllocRun of 10 blocks, 4 a slab = %+v, want runs of 4, 4 and 2", runs)
	}
	hs := blocks(runs)
	// Free one block of each full slab: four blocks are free in three slabs of
	// one shard, and the budget has one more slab of four in it.
	if err := p.FreeAll([]Handle{hs[1], hs[6]}); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	if _, err := p.AllocRun(class, 9, 2, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("AllocRun of 9 with 8 to be had: err = %v, want ErrNoSpace", err)
	}
	if after := p.Stats(); after.LiveBlocks != before.LiveBlocks || p.FreeBytes() != before.MaxBytes-before.LiveBytes {
		t.Fatalf("the failed run kept blocks: %+v, was %+v", after, before)
	}
	more, err := p.AllocRun(class, 8, 2, nil)
	if err != nil {
		t.Fatalf("AllocRun of the 8 blocks left: %v", err)
	}
	if got := len(blocks(more)); got != 8 {
		t.Fatalf("AllocRun of 8 returned %d blocks", got)
	}
	if st := p.Stats(); st.LiveBlocks != 16 || p.FreeBytes() != 0 {
		t.Fatalf("pool not full after taking everything: %+v", st)
	}
}

func TestAllocRunRejectsBadArguments(t *testing.T) {
	p := newTestPool(t, 1<<20, 4096)
	if _, err := p.AllocRun(512, 0, 0, nil); err == nil || errors.Is(err, ErrNoSpace) {
		t.Fatalf("AllocRun of 0 blocks: err = %v, want an argument error", err)
	}
	if _, err := p.AllocRun(8192, 1, 0, nil); err == nil || errors.Is(err, ErrNoSpace) {
		t.Fatalf("AllocRun of a class above the slab size: err = %v, want an argument error", err)
	}
	if err := p.FreeAll([]Handle{{SlabID: -1, Class: 512}}); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("FreeAll of a negative slab id: err = %v, want ErrBadHandle", err)
	}
}

// BenchmarkAllocRun64 is a window's worth of allocator work on a pool laid out
// like a donor's receive pool: one 64-block run of 2 KiB blocks taken, then
// freed. scripts/alloc_budget.sh holds it to no heap allocation at all.
func BenchmarkAllocRun64(b *testing.B) {
	p, err := NewPoolOver("bench", make([]byte, 16<<20), WithSlabSize(1<<20), WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	const hints = 64 // enough to stripe over every shard
	var hs [64]Handle
	round := func(i int) {
		var few [4]Run
		runs, err := p.AllocRun(2048, len(hs), uint64(i%hints), few[:0])
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, r := range runs {
			for r.N > 0 {
				hs[n], _ = r.Pop()
				n++
			}
		}
		if err := p.FreeAll(hs[:n]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < hints; i++ { // register each shard's slab off the clock
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
}
