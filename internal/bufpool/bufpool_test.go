package bufpool

import (
	"testing"
)

func TestClassFor(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{1, 0}, {MinBuf, 0}, {MinBuf + 1, 1}, {2 * MinBuf, 1}, {64 << 10, 4}, {64<<10 + 32, 5},
		{MaxBuf - 1, classes - 1}, {MaxBuf, classes - 1},
	} {
		if got := classFor(tc.n); got != tc.class {
			t.Errorf("classFor(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
}

// TestGetShapes: a buffer has the requested length and its class's capacity;
// requests above the top class are plain allocations, zero is nil.
func TestGetShapes(t *testing.T) {
	if Get(0) != nil {
		t.Error("Get(0) is not nil")
	}
	for _, n := range []int{1, 100, MinBuf, MinBuf + 1, 64 << 10, MaxBuf} {
		b := Get(n)
		if len(b) != n || cap(b) != MinBuf<<classFor(n) {
			t.Errorf("Get(%d): len %d cap %d, want cap %d", n, len(b), cap(b), MinBuf<<classFor(n))
		}
		Put(b)
	}
	if b := Get(MaxBuf + 1); len(b) != MaxBuf+1 || cap(b) != MaxBuf+1 {
		t.Errorf("Get above MaxBuf: len %d cap %d", len(b), cap(b))
	}
}

// TestPutRecyclesWithinAClass: a released buffer serves the next request of
// its class (sync.Pool keeps a per-P private slot, so with no GC and no
// goroutine switch in between the very same buffer comes back), whatever
// length it was cut to, and never a request of another class.
func TestPutRecyclesWithinAClass(t *testing.T) {
	b := Get(5000) // 8 KiB class
	first := &b[0]
	Put(b[:10])
	small := Get(100) // 4 KiB class: must not be handed the 8 KiB buffer
	if cap(small) != MinBuf {
		t.Fatalf("a 100-byte request got a %d-byte buffer", cap(small))
	}
	again := Get(8000)
	if &again[0] != first {
		t.Skip("the pool dropped the buffer (GC or a goroutine switch); nothing to observe")
	}
	if len(again) != 8000 || cap(again) != 2*MinBuf {
		t.Errorf("recycled buffer: len %d cap %d", len(again), cap(again))
	}
}

// TestPutDropsForeignBuffers: a buffer whose capacity is not a class size did
// not come from Get and must not enter a class, where a later Get would slice
// it past its end.
func TestPutDropsForeignBuffers(t *testing.T) {
	for _, c := range []int{0, 1, MinBuf - 1, MinBuf + 1, 3 * MinBuf, MaxBuf + 1, 2 * MaxBuf} {
		foreign := make([]byte, c)
		Put(foreign)
		for _, n := range []int{MinBuf, 2 * MinBuf, 4 * MinBuf, MaxBuf} {
			b := Get(n)
			if len(foreign) > 0 && &b[:1][0] == &foreign[:1][0] {
				t.Errorf("a foreign %d-byte buffer was handed out for a %d-byte request", c, n)
			}
		}
	}
}

// TestOverlaps: views of one buffer overlap it and each other when their
// capacities meet; separate buffers and empty slices never do.
func TestOverlaps(t *testing.T) {
	b := make([]byte, 64)
	other := make([]byte, 64)
	for _, tc := range []struct {
		name string
		a, b []byte
		want bool
	}{
		{"itself", b, b, true},
		{"a view at the front", b[:8], b, true},
		{"a view at the back", b[60:], b, true},
		{"a zero-length view with capacity", b[10:10], b, true},
		{"a view capped before another", b[:8:8], b[8:], false},
		{"another buffer", b, other, false},
		{"nil", nil, b, false},
	} {
		if got := Overlaps(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: Overlaps = %v, want %v", tc.name, got, tc.want)
		}
		if got := Overlaps(tc.b, tc.a); got != tc.want {
			t.Errorf("%s, swapped: Overlaps = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	Put(Get(64 << 10)) // warm the class and the box freelist
	if avg := testing.AllocsPerRun(200, func() { Put(Get(64 << 10)) }); avg != 0 {
		t.Errorf("Get+Put allocates %.1f times per round trip, want 0", avg)
	}
}
