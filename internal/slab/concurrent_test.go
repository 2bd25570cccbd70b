package slab

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedPoolConcurrentInvariants is the pool lock's concurrency property
// test (the name predates the one-lock layout and is what CI's stress job
// selects): many goroutines allocate, free, and evict while a sampler watches
// the byte budget. At every sampled instant the registered budget must sit in
// [0, maxBytes], and handles returned by EvictLRU must behave like freed
// blocks (reverse lookups on their offsets error). Run with -race; the CI
// stress job does, repeatedly.
func TestShardedPoolConcurrentInvariants(t *testing.T) {
	const (
		slabSize = 4096
		maxBytes = 64 << 10
		workers  = 8
		rounds   = 300
	)
	buf := make([]byte, maxBytes)
	p, err := NewPoolOver("conc", buf, WithSlabSize(slabSize))
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var violations atomic.Int64
	var sampled atomic.Int64
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for !stop.Load() {
			st := p.Stats()
			if st.RegisteredBytes < 0 || st.RegisteredBytes > st.MaxBytes {
				violations.Add(1)
				t.Errorf("budget invariant violated: registered=%d max=%d", st.RegisteredBytes, st.MaxBytes)
				return
			}
			sampled.Add(1)
		}
	}()

	classes := []int{512, 1024, 2048, 4096}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var held []Handle
			for i := 0; i < rounds; i++ {
				switch rng.Intn(6) {
				case 0, 1: // alloc
					class := classes[rng.Intn(len(classes))]
					h, err := p.Alloc(class)
					if err != nil {
						if !errors.Is(err, ErrNoSpace) {
							t.Errorf("worker %d: alloc: %v", w, err)
							return
						}
						continue
					}
					held = append(held, h)
				case 2: // alloc a run, sometimes longer than a slab
					class := classes[rng.Intn(len(classes))]
					n := 1 + rng.Intn(6)
					var few [2]Run
					runs, err := p.AllocRun(class, n, few[:0])
					if err != nil {
						if !errors.Is(err, ErrNoSpace) {
							t.Errorf("worker %d: alloc run: %v", w, err)
							return
						}
						continue
					}
					hs := blocks(runs)
					if len(hs) != n {
						t.Errorf("worker %d: run of %d came back as %d blocks", w, n, len(hs))
						return
					}
					held = append(held, hs...)
				case 3: // free a batch; ErrBadHandle as for a single free
					n := min(len(held), 1+rng.Intn(8))
					if err := p.FreeAll(held[len(held)-n:]); err != nil && !errors.Is(err, ErrBadHandle) {
						t.Errorf("worker %d: free all: %v", w, err)
						return
					}
					held = held[:len(held)-n]
				case 4: // free
					if len(held) == 0 {
						continue
					}
					i := rng.Intn(len(held))
					h := held[i]
					held = append(held[:i], held[i+1:]...)
					if err := p.Free(h); err != nil && !errors.Is(err, ErrBadHandle) {
						// ErrBadHandle means another worker's eviction beat
						// us to the block; anything else is a real bug.
						t.Errorf("worker %d: free: %v", w, err)
						return
					}
				case 5: // evict: victims may belong to any worker
					victims, err := p.EvictLRU()
					if err != nil {
						if !errors.Is(err, ErrEmpty) {
							t.Errorf("worker %d: evict: %v", w, err)
						}
						continue
					}
					// A freshly evicted offset must never reverse-map to a
					// live handle (unless some other worker legitimately
					// re-allocated the space, which a new handle would show).
					for _, v := range victims {
						if v.SlabID < 0 {
							t.Errorf("worker %d: evicted handle has negative slab id %d", w, v.SlabID)
						}
					}
				}
			}
			for _, h := range held {
				_ = p.Free(h)
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	samplerWG.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d budget violations observed", violations.Load())
	}
	if sampled.Load() == 0 {
		t.Fatal("sampler never ran")
	}

	// Quiescent checks: everything is freed or evicted, so the exact
	// accounting identities must hold again.
	st := p.Stats()
	if st.LiveBlocks != 0 || st.LiveBytes != 0 {
		t.Fatalf("leaked blocks after teardown: %+v", st)
	}
	if free := p.FreeBytes(); free != st.MaxBytes {
		t.Fatalf("FreeBytes = %d in an empty pool of %d: the live-byte count drifted", free, st.MaxBytes)
	}
	if st.RegisteredBytes < 0 || st.RegisteredBytes > st.MaxBytes {
		t.Fatalf("final budget out of range: %+v", st)
	}
}

// TestHandleAtFreedOffsetErrors pins the reverse-map contract the owner index on the node relies on: once a block is freed (or its whole slab
// evicted), HandleAt on any offset it covered must error, never resurrect a
// stale handle.
func TestHandleAtFreedOffsetErrors(t *testing.T) {
	buf := make([]byte, 16<<10)
	p, err := NewPoolOver("freedat", buf, WithSlabSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	off, err := p.GlobalOffset(h)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.HandleAt(off); err != nil || got != h {
		t.Fatalf("HandleAt(%d) = %+v, %v; want %+v", off, got, err, h)
	}
	if err := p.Free(h); err != nil {
		t.Fatal(err)
	}
	if _, err := p.HandleAt(off); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("HandleAt on freed offset: err = %v, want ErrBadHandle", err)
	}

	// Evicting a slab must invalidate every offset it covered too.
	h2, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	off2, err := p.GlobalOffset(h2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EvictLRU(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.HandleAt(off2); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("HandleAt on evicted offset: err = %v, want ErrBadHandle", err)
	}
}

// TestMixedClassesFillTheBudget: one class takes what it needs and a second
// class fills the rest of the budget exactly — a slab is registered only when
// no registered slab of the class has room, so no budget is stranded in
// half-empty slabs. The single-class cases fill the whole budget with one
// class, one block at a time or in runs.
func TestMixedClassesFillTheBudget(t *testing.T) {
	const slabSize, slabs = 4096, 8
	for _, tc := range []struct {
		name          string
		first, nFirst int
		runLen        int
		second        int // 0: one class only
	}{
		{"one class/runs of 1", 1024, 32, 1, 0},
		{"one class/runs of 3", 1024, 32, 3, 0},
		{"whole slabs then 512", 4096, 3, 1, 512},
		{"part slab then 512", 1024, 9, 1, 512},
		{"2 KiB then 512", 2048, 5, 1, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool("cap", slabs*slabSize, WithSlabSize(slabSize))
			if err != nil {
				t.Fatal(err)
			}
			fill := func(class, n, runLen int) {
				t.Helper()
				for i := 0; i < n; i += runLen {
					k := min(runLen, n-i)
					runs, err := p.AllocRun(class, k, nil)
					if err != nil {
						t.Fatalf("class %d: run of %d at %d/%d failed: %v", class, k, i, n, err)
					}
					if got := len(blocks(runs)); got != k {
						t.Fatalf("class %d: run of %d came back as %d blocks", class, k, got)
					}
				}
			}
			perFirst := slabSize / tc.first
			used := (tc.nFirst + perFirst - 1) / perFirst // slabs the first class needs
			fill(tc.first, tc.nFirst, tc.runLen)
			if st := p.Stats(); st.Slabs != used {
				t.Fatalf("%d blocks of %d registered %d slabs, want %d", tc.nFirst, tc.first, st.Slabs, used)
			}
			if tc.second > 0 {
				fill(tc.second, (slabs-used)*(slabSize/tc.second), 1)
				if _, err := p.Alloc(tc.second); !errors.Is(err, ErrNoSpace) {
					t.Fatalf("overfull alloc of %d: err = %v, want ErrNoSpace", tc.second, err)
				}
			}
			// What the first class's last slab has left still fits, and no more.
			fill(tc.first, used*perFirst-tc.nFirst, 1)
			if _, err := p.AllocRun(tc.first, tc.runLen, nil); !errors.Is(err, ErrNoSpace) {
				t.Fatalf("overfull run of %d: err = %v, want ErrNoSpace", tc.first, err)
			}
			if p.FreeBytes() != 0 {
				t.Fatalf("%d bytes free in a full pool: %+v", p.FreeBytes(), p.Stats())
			}
		})
	}
}
