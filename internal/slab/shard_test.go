package slab

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedAllocSpreadsByHint checks that distinct hints land allocations on
// more than one shard while a fixed hint keeps reusing one shard's partial
// slab (the striping that lets independent clients avoid each other's locks).
func TestShardedAllocSpreadsByHint(t *testing.T) {
	p, err := NewPool("spread", 64<<10, WithSlabSize(4096), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", p.Shards())
	}
	shards := map[int]bool{}
	for hint := uint64(0); hint < 32; hint++ {
		h, err := p.AllocHint(512, hint)
		if err != nil {
			t.Fatal(err)
		}
		shards[h.SlabID%p.Shards()] = true
	}
	if len(shards) < 2 {
		t.Fatalf("32 distinct hints all landed on %d shard(s)", len(shards))
	}
}

// TestShardedPoolConcurrentInvariants is the sharded pool's concurrency
// property test: many goroutines allocate, free, and evict while a sampler
// watches the pool-wide atomic byte budget. At every sampled instant the
// registered budget must sit in [0, maxBytes] — the CAS reservation loop may
// never let it go negative or overshoot — and handles returned by EvictLRU
// must behave like freed blocks (reverse lookups on their offsets error).
// Run with -race; the CI stress job does, repeatedly.
func TestShardedPoolConcurrentInvariants(t *testing.T) {
	const (
		slabSize = 4096
		maxBytes = 64 << 10
		workers  = 8
		rounds   = 300
	)
	buf := make([]byte, maxBytes)
	p, err := NewPoolOver("conc", buf, WithSlabSize(slabSize), WithShards(8))
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
			reg := p.registeredBytes.Load()
			max := p.maxBytes.Load()
			if reg < 0 || reg > max {
				violations.Add(1)
				t.Errorf("budget invariant violated: registered=%d max=%d", reg, max)
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
					h, err := p.AllocHint(class, rng.Uint64())
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
					runs, err := p.AllocRun(class, n, rng.Uint64(), few[:0])
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

// TestHandleAtFreedOffsetErrors pins the reverse-map contract the striped
// owner index on the node relies on: once a block is freed (or its whole slab
// evicted), HandleAt on any offset it covered must error, never resurrect a
// stale handle.
func TestHandleAtFreedOffsetErrors(t *testing.T) {
	buf := make([]byte, 16<<10)
	p, err := NewPoolOver("freedat", buf, WithSlabSize(4096), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.AllocHint(1024, 7)
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
	h2, err := p.AllocHint(1024, 7)
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

// TestShardedCapacityMatchesSingleLock proves capacity equivalence: striping
// never makes the pool fail an allocation the single-lock layout would have
// served. Both layouts must fit exactly maxBytes/class blocks of one class no
// matter how hints scatter the allocations — taken one block at a time, or as
// runs whose last ones have to be pieced together from other shards' blocks.
func TestShardedCapacityMatchesSingleLock(t *testing.T) {
	const slabSize, class, maxBytes = 4096, 1024, 32 << 10
	for _, shards := range []int{1, 8} {
		for _, runLen := range []int{1, 3} {
			p, err := NewPool("cap", maxBytes, WithSlabSize(slabSize), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			want := maxBytes / class
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < want; i += runLen {
				n := min(runLen, want-i)
				runs, err := p.AllocRun(class, n, rng.Uint64(), nil)
				if err != nil {
					t.Fatalf("shards=%d: run of %d at %d/%d failed: %v", shards, n, i, want, err)
				}
				if got := len(blocks(runs)); got != n {
					t.Fatalf("shards=%d: run of %d came back as %d blocks", shards, n, got)
				}
			}
			if _, err := p.AllocHint(class, rng.Uint64()); !errors.Is(err, ErrNoSpace) {
				t.Fatalf("shards=%d: overfull alloc err = %v, want ErrNoSpace", shards, err)
			}
			if _, err := p.AllocRun(class, runLen, rng.Uint64(), nil); !errors.Is(err, ErrNoSpace) {
				t.Fatalf("shards=%d: overfull run err = %v, want ErrNoSpace", shards, err)
			}
			if st := p.Stats(); st.LiveBlocks != want || p.FreeBytes() != 0 {
				t.Fatalf("shards=%d: %d blocks live and %d bytes free in a full pool of %d", shards, st.LiveBlocks, p.FreeBytes(), want)
			}
		}
	}
}
