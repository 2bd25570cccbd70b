package slab

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newTestPool(t *testing.T, maxBytes int64, slabSize int) *Pool {
	t.Helper()
	p, err := NewPool("test", maxBytes, WithSlabSize(slabSize))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllocFreeRoundTrip(t *testing.T) {
	p := newTestPool(t, 1<<20, 4096)
	h, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello disaggregated world")
	if err := p.Write(h, data); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(h, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q, want %q", got, data)
	}
	if err := p.Free(h); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBadClass(t *testing.T) {
	p := newTestPool(t, 1<<20, 4096)
	if _, err := p.Alloc(0); err == nil {
		t.Fatal("expected error for class 0")
	}
	if _, err := p.Alloc(8192); err == nil {
		t.Fatal("expected error for class > slab size")
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := newTestPool(t, 8192, 4096) // room for exactly 2 slabs
	var handles []Handle
	for {
		h, err := p.Alloc(4096)
		if err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("err = %v, want ErrNoSpace", err)
			}
			break
		}
		handles = append(handles, h)
	}
	if len(handles) != 2 {
		t.Fatalf("allocated %d blocks, want 2", len(handles))
	}
	// Freeing lets allocation proceed again.
	if err := p.Free(handles[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(4096); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestDoubleFree(t *testing.T) {
	p := newTestPool(t, 1<<20, 4096)
	h, _ := p.Alloc(512)
	if err := p.Free(h); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(h); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("double free err = %v, want ErrBadHandle", err)
	}
}

func TestForeignHandleRejected(t *testing.T) {
	p := newTestPool(t, 1<<20, 4096)
	if err := p.Free(Handle{SlabID: 99, Offset: 0, Class: 512}); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("err = %v, want ErrBadHandle", err)
	}
	if _, err := p.Read(Handle{SlabID: 99, Class: 512}, 1); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("err = %v, want ErrBadHandle", err)
	}
}

func TestMisalignedHandleRejected(t *testing.T) {
	p := newTestPool(t, 1<<20, 4096)
	h, _ := p.Alloc(512)
	bad := h
	bad.Offset += 3
	if err := p.Write(bad, []byte{1}); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("err = %v, want ErrBadHandle", err)
	}
}

func TestWriteOversize(t *testing.T) {
	p := newTestPool(t, 1<<20, 4096)
	h, _ := p.Alloc(512)
	if err := p.Write(h, make([]byte, 513)); err == nil {
		t.Fatal("expected error for oversize write")
	}
}

func TestMixedClassesIsolated(t *testing.T) {
	p := newTestPool(t, 1<<20, 4096)
	h512, _ := p.Alloc(512)
	h2048, _ := p.Alloc(2048)
	if h512.SlabID == h2048.SlabID {
		t.Fatal("different classes must live in different slabs")
	}
	if err := p.Write(h512, bytes.Repeat([]byte{0xAA}, 512)); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(h2048, bytes.Repeat([]byte{0xBB}, 2048)); err != nil {
		t.Fatal(err)
	}
	a, _ := p.Read(h512, 512)
	b, _ := p.Read(h2048, 2048)
	if a[0] != 0xAA || b[0] != 0xBB {
		t.Fatal("cross-class data corruption")
	}
}

func TestEvictLRUReturnsLiveHandles(t *testing.T) {
	p := newTestPool(t, 16384, 4096)
	h1, _ := p.Alloc(4096) // slab 0
	h2, _ := p.Alloc(4096) // slab 1
	_ = h2
	// Touch slab 0 so slab 1 becomes LRU.
	if err := p.Write(h1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	victims, err := p.EvictLRU()
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0].SlabID != h2.SlabID {
		t.Fatalf("evicted %+v, want slab %d", victims, h2.SlabID)
	}
	// Evicted handle is now invalid.
	if _, err := p.Read(h2, 1); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("read of evicted handle: err = %v, want ErrBadHandle", err)
	}
	// Survivor still valid.
	if _, err := p.Read(h1, 1); err != nil {
		t.Fatalf("survivor read: %v", err)
	}
}

func TestEvictEmptyPool(t *testing.T) {
	p := newTestPool(t, 1<<20, 4096)
	if _, err := p.EvictLRU(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestShrinkEmptyReleasesOnlyFreeSlabs(t *testing.T) {
	p := newTestPool(t, 3*4096, 4096)
	h1, _ := p.Alloc(4096)
	h2, _ := p.Alloc(4096)
	if err := p.Free(h2); err != nil {
		t.Fatal(err)
	}
	released := p.ShrinkEmpty(2 * 4096)
	if released != 4096 {
		t.Fatalf("released %d, want 4096 (one empty slab)", released)
	}
	if _, err := p.Read(h1, 1); err != nil {
		t.Fatalf("live block disturbed by shrink: %v", err)
	}
	st := p.Stats()
	if st.MaxBytes != 2*4096 {
		t.Fatalf("MaxBytes after shrink = %d, want %d", st.MaxBytes, 2*4096)
	}
}

func TestGrowExtendsBudget(t *testing.T) {
	p := newTestPool(t, 4096, 4096)
	if _, err := p.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(4096); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	p.Grow(4096)
	if _, err := p.Alloc(4096); err != nil {
		t.Fatalf("alloc after grow: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := newTestPool(t, 1<<20, 8192)
	var hs []Handle
	for i := 0; i < 20; i++ {
		h, err := p.Alloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	st := p.Stats()
	if st.LiveBlocks != 20 {
		t.Fatalf("LiveBlocks = %d, want 20", st.LiveBlocks)
	}
	if st.LiveBytes != 20*2048 {
		t.Fatalf("LiveBytes = %d, want %d", st.LiveBytes, 20*2048)
	}
	if st.Slabs != 5 { // 8192/2048 = 4 blocks per slab
		t.Fatalf("Slabs = %d, want 5", st.Slabs)
	}
	for _, h := range hs {
		if err := p.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	st = p.Stats()
	if st.LiveBlocks != 0 || st.LiveBytes != 0 {
		t.Fatalf("after free all: %+v", st)
	}
}

func TestFreeBytes(t *testing.T) {
	p := newTestPool(t, 8192, 4096)
	if got := p.FreeBytes(); got != 8192 {
		t.Fatalf("FreeBytes = %d, want 8192", got)
	}
	h, _ := p.Alloc(1024)
	if got := p.FreeBytes(); got != 8192-1024 {
		t.Fatalf("FreeBytes = %d, want %d", got, 8192-1024)
	}
	_ = p.Free(h)
}

func TestRegistrationCounters(t *testing.T) {
	p := newTestPool(t, 16384, 4096)
	h, _ := p.Alloc(4096)
	_, _ = p.Alloc(4096)
	_ = h
	if st := p.Stats(); st.Registrations != 2 || st.Deregistrations != 0 {
		t.Fatalf("reg counters = %+v", st)
	}
	if _, err := p.EvictLRU(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Deregistrations != 1 {
		t.Fatalf("deregistrations = %d, want 1", st.Deregistrations)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	p := newTestPool(t, 8<<20, DefaultSlabSize)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var local []Handle
			for i := 0; i < 500; i++ {
				if len(local) > 0 && rng.Intn(2) == 0 {
					h := local[len(local)-1]
					local = local[:len(local)-1]
					if err := p.Free(h); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
				} else {
					classes := []int{512, 1024, 2048, 4096}
					h, err := p.Alloc(classes[rng.Intn(len(classes))])
					if err != nil {
						continue
					}
					local = append(local, h)
				}
			}
			for _, h := range local {
				if err := p.Free(h); err != nil {
					t.Errorf("cleanup Free: %v", err)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if st := p.Stats(); st.LiveBlocks != 0 {
		t.Fatalf("leaked %d blocks", st.LiveBlocks)
	}
}

// Property: alloc never hands out the same (slab, offset) twice while live,
// and live accounting matches the set of outstanding handles.
func TestAllocUniquenessProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		p, err := NewPool("q", 1<<18, WithSlabSize(4096))
		if err != nil {
			return false
		}
		live := map[Handle]bool{}
		var order []Handle
		for _, op := range ops {
			if op%3 == 0 && len(order) > 0 {
				h := order[0]
				order = order[1:]
				delete(live, h)
				if err := p.Free(h); err != nil {
					return false
				}
			} else {
				classes := []int{512, 1024, 2048, 4096}
				h, err := p.Alloc(classes[int(op)%len(classes)])
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					return false
				}
				key := Handle{SlabID: h.SlabID, Offset: h.Offset, Class: h.Class}
				if live[key] {
					return false // double allocation
				}
				live[key] = true
				order = append(order, h)
			}
		}
		return p.Stats().LiveBlocks == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	p, _ := NewPool("bench", 64<<20)
	if h, err := p.Alloc(2048); err != nil || p.Free(h) != nil { // register the slab off the clock
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := p.Alloc(2048)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Free(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite4K(b *testing.B) {
	p, _ := NewPool("bench", 64<<20)
	h, _ := p.Alloc(4096)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Write(h, data); err != nil {
			b.Fatal(err)
		}
	}
}
