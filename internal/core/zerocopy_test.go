package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"godm/internal/bufpool"
	"godm/internal/compress"
	"godm/internal/des"
	"godm/internal/wire/wiretest"
)

// TestGetIntoAndGetAllIntoOverSimFabric checks the caller-buffer read path
// end to end on the simulated fabric: GetInto and GetAllInto return the same
// bytes Put parked, for raw and compressed entries alike, and reslice the
// destination buffers to the decoded lengths.
func TestGetIntoAndGetAllIntoOverSimFabric(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep, WithCompression(1024))
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		raw := bytes.Repeat([]byte{0xAB, 0xCD}, 300) // 600 B: below threshold, stays raw
		compressible := bytes.Repeat([]byte("compress me "), 400)
		entries := []Entry{{Key: 1, Data: raw}, {Key: 2, Data: compressible}}
		if err := client.PutAll(ctx, 2, entries); err != nil {
			t.Errorf("PutAll: %v", err)
			return
		}
		dst := make([]byte, 8192)
		n, err := client.GetInto(ctx, 2, 1, dst)
		if err != nil || !bytes.Equal(dst[:n], raw) {
			t.Errorf("GetInto raw = %d bytes, %v", n, err)
		}
		n, err = client.GetInto(ctx, 2, 2, dst)
		if err != nil || !bytes.Equal(dst[:n], compressible) {
			t.Errorf("GetInto compressed = %d bytes, %v", n, err)
		}
		if _, err := client.GetInto(ctx, 2, 2, make([]byte, 16)); err == nil {
			t.Error("GetInto with a short dst should fail")
		}
		dsts := [][]byte{make([]byte, 8192), make([]byte, 8192)}
		if err := client.GetAllInto(ctx, 2, []uint64{1, 2}, dsts); err != nil {
			t.Errorf("GetAllInto: %v", err)
			return
		}
		if !bytes.Equal(dsts[0], raw) {
			t.Errorf("GetAllInto[0] = %d bytes, want the raw entry", len(dsts[0]))
		}
		if !bytes.Equal(dsts[1], compressible) {
			t.Errorf("GetAllInto[1] = %d bytes, want the compressed entry", len(dsts[1]))
		}
	})
}

// TestWindowPutOwnedSkipsCopy checks the ownership-handoff staging path: the
// window stages the caller's slice itself (no defensive copy), and the batch
// that flushes carries exactly those bytes.
func TestWindowPutOwnedSkipsCopy(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		w, err := client.NewWindow(2, 4, 0)
		if err != nil {
			t.Error(err)
			return
		}
		owned := bytes.Repeat([]byte{0x11}, 2048)
		if err := w.PutOwned(ctx, 1, owned); err != nil {
			t.Error(err)
			return
		}
		// The staged entry aliases the caller's slice — that is the contract.
		w.mu.Lock()
		aliased := len(w.staged) == 1 && &w.staged[0].Data[0] == &owned[0]
		w.mu.Unlock()
		if !aliased {
			t.Error("PutOwned copied its input; it must stage the caller's slice")
		}
		copied := bytes.Repeat([]byte{0x22}, 2048)
		if err := w.Put(ctx, 2, copied); err != nil {
			t.Error(err)
			return
		}
		w.mu.Lock()
		unaliased := len(w.staged) == 2 && &w.staged[1].Data[0] != &copied[0]
		w.mu.Unlock()
		if !unaliased {
			t.Error("Put must defensively copy its input")
		}
		if err := w.Flush(ctx); err != nil {
			t.Errorf("Flush: %v", err)
			return
		}
		for key, want := range map[uint64][]byte{1: owned, 2: copied} {
			got, err := client.Get(ctx, 2, key)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("Get(%d) = %d bytes, %v", key, len(got), err)
			}
		}
	})
}

// TestGetIntoZeroAllocOverSim pins the allocation contract on the simulated
// fabric: a steady-state GetInto of an uncompressed entry performs zero
// allocations — the handle lookup, the simulated one-sided read, and the
// discrete-event bookkeeping all run allocation-free.
func TestGetIntoZeroAllocOverSim(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{0x5A}, 4096)
		if err := client.Put(ctx, 2, 1, data); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		dst := make([]byte, 4096)
		for i := 0; i < 8; i++ {
			if _, err := client.GetInto(ctx, 2, 1, dst); err != nil {
				t.Errorf("warm GetInto: %v", err)
				return
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := client.GetInto(ctx, 2, 1, dst); err != nil {
				t.Errorf("GetInto: %v", err)
			}
		})
		if allocs > 0 {
			t.Errorf("GetInto allocates %.1f objects/op over simnet, want 0", allocs)
		}
		if !bytes.Equal(dst, data) {
			t.Error("GetInto returned wrong bytes")
		}
	})
}

// TestGetIntoZeroAllocOverTCP pins the same contract on the real transport:
// steady-state GetInto scatters the response off the socket into dst with
// zero allocations on the whole client path (and the loopback donor's serve
// path, which the global counter also sees). A compressed entry is held to
// the same zero: its stored payload is staged in a pooled buffer and the
// block decoder allocates nothing.
func TestGetIntoZeroAllocOverTCP(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, tc := range []struct {
		name       string
		opts       []ClientOption
		data       []byte
		compressed bool
	}{
		{"raw", nil, bytes.Repeat([]byte{0x5A}, 4096), false},
		{"compressed", []ClientOption{WithCompression(0)}, compress.GeneratePage(rand.New(rand.NewSource(1)), 2), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			client := newBenchFabric(t, 1, tc.opts...).client
			if err := client.Put(ctx, 1, 1, tc.data); err != nil {
				t.Fatal(err)
			}
			if h := client.handles[clientKey{node: 1, key: 1}]; (h.flags&flagCompressed != 0) != tc.compressed {
				t.Fatalf("entry parked with flags %#x, %d of %d bytes stored", h.flags, h.storedLen, h.rawLen)
			}
			dst := make([]byte, 4096)
			for i := 0; i < 16; i++ {
				if _, err := client.GetInto(ctx, 1, 1, dst); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := client.GetInto(ctx, 1, 1, dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("GetInto allocates %.1f objects/op over tcpnet, want 0", allocs)
			}
			if !bytes.Equal(dst, tc.data) {
				t.Fatal("GetInto returned wrong bytes")
			}
		})
	}
}

// TestCompressedWindowAllocatesNoPayload: a 64-page compressed window moves
// through PutAll and GetAllInto without a payload-sized allocation in either
// direction. The put compresses every entry into one pooled staging buffer,
// the read stages each span in a pooled buffer and decodes into the caller's
// pages. One fresh slice per compressed payload (what the put did before) is
// 128 KiB a window, one per decoded page 256 KiB; the bookkeeping that was
// left under the budget is pooled too (TestWindowRoundAllocatesNothing).
func TestCompressedWindowAllocatesNoPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const window, budget = 64, 32 << 10
	ctx := context.Background()
	client := newBenchFabric(t, 1, WithCompression(0)).client
	rng := rand.New(rand.NewSource(2))
	entries := make([]Entry, window)
	keys := make([]uint64, window)
	dsts := make([][]byte, window)
	for i := range entries {
		entries[i] = Entry{Key: uint64(i), Data: compress.GeneratePage(rng, 2)}
		keys[i] = uint64(i)
		dsts[i] = make([]byte, 4096)
	}
	put := func() {
		if err := client.PutAll(ctx, 1, entries); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if err := client.GetAllInto(ctx, 1, keys, dsts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // fill the pools, dial the lanes
		put()
		get()
	}
	if got := wiretest.AllocBytes(put); got > budget {
		t.Errorf("PutAll of %d compressed pages allocated %d bytes, budget %d", window, got, budget)
	}
	if got := wiretest.AllocBytes(get); got > budget {
		t.Errorf("GetAllInto of %d compressed pages allocated %d bytes, budget %d", window, got, budget)
	}
	for i, e := range entries {
		if h := client.handles[clientKey{node: 1, key: e.Key}]; h.flags&flagCompressed == 0 || h.class != 2048 {
			t.Fatalf("entry %d parked with flags %#x in class %d, want compressed in 2048", i, h.flags, h.class)
		}
		if !bytes.Equal(dsts[i], e.Data) {
			t.Fatalf("entry %d read back wrong", i)
		}
	}
}

// windowRound is bench/'s window4k-loop round on a loopback pair, both ends in
// this process: PutAll of a 64-page compressed window, GetAllInto of it,
// DeleteAll of it. The pages carry their round number, so a round that read
// back another round's bytes fails its check.
type windowRound struct {
	client  *Client
	pages   [][]byte
	entries []Entry
	keys    []uint64
	dsts    [][]byte
	n       uint64
}

func newWindowRound(tb testing.TB) *windowRound {
	tb.Helper()
	w := &windowRound{client: newBenchFabric(tb, 1, WithCompression(0)).client}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < testWindow; i++ {
		w.pages = append(w.pages, compress.GeneratePage(rng, 2))
		w.entries = append(w.entries, Entry{Key: uint64(i), Data: make([]byte, 4096)})
		w.keys = append(w.keys, uint64(i))
		w.dsts = append(w.dsts, make([]byte, 4096))
	}
	return w
}

func (w *windowRound) round(tb testing.TB) {
	ctx := context.Background()
	w.n++
	for i, e := range w.entries {
		copy(e.Data, w.pages[i])
		binary.LittleEndian.PutUint64(e.Data, w.n)
	}
	if err := w.client.PutAll(ctx, 1, w.entries); err != nil {
		tb.Fatal(err)
	}
	if err := w.client.GetAllInto(ctx, 1, w.keys, w.dsts); err != nil {
		tb.Fatal(err)
	}
	for i, e := range w.entries {
		if !bytes.Equal(w.dsts[i], e.Data) {
			tb.Fatalf("round %d: entry %d read back wrong", w.n, i)
		}
	}
	if err := w.client.DeleteAll(ctx, 1, w.keys); err != nil {
		tb.Fatal(err)
	}
}

// TestWindowRoundAllocatesNothing: once warm, a window round allocates
// nothing in either half of the process. The client's per-call slices come
// from pooled scratch, its put and release requests from the frame pool; the
// donor answers into a pooled buffer (or the shared ok reply), which tcpnet
// releases after the flush that writes it; the caller's answers land in
// pooled buffers core releases after decoding; calls run on persistent
// workers. Before, a round allocated ~20 KB in 18 objects.
func TestWindowRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	w := newWindowRound(t)
	for i := 0; i < 32; i++ {
		w.round(t)
	}
	if allocs := testing.AllocsPerRun(200, func() { w.round(t) }); allocs > 0 {
		t.Errorf("a window round allocates %.0f objects, want 0", allocs)
	}
}

// BenchmarkClientWindowRound is TestWindowRoundAllocatesNothing's round, timed;
// scripts/alloc_budget.sh holds it to 0 B/op, 0 allocs/op over 20000 rounds.
// Two one-time costs are paid before the timer starts, or they read as 2-8
// B/op there: the client's handle map grows its table as 64 inserts and 64
// deletes a round churn it, until it settles a few thousand rounds in; and
// the frame pool fills per P, so until spare buffers of a class sit where
// every P can steal them, a Get on one P can miss the buffer another P's
// private slot holds. A cost paid every round still shows.
func BenchmarkClientWindowRound(b *testing.B) {
	w := newWindowRound(b)
	for i := 0; i < 4000; i++ {
		w.round(b)
	}
	var spare [][]byte
	for n := bufpool.MinBuf; n <= 256<<10; n *= 2 { // every class a round draws from
		for i := 0; i < 4; i++ {
			spare = append(spare, bufpool.Get(n))
		}
	}
	for _, buf := range spare {
		bufpool.Put(buf)
	}
	b.SetBytes(testWindow * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.round(b)
	}
}

// TestCompressedPutStagingUnderCancellation drives the staging buffer's
// ownership rule from several goroutines at once: every PutAll compresses
// into a pooled buffer and releases it on return, half of them under a
// context that dies mid-call, so a released buffer is re-drawn and rewritten
// by a neighbour at once. Every window whose put succeeded must read back
// byte for byte. Run with -race (and -tags bufdebug, which poisons on
// release): a transport that still read a payload after handing it back
// would show up as a race with the next owner's compressor, or as poison in
// a window that claimed success.
func TestCompressedPutStagingUnderCancellation(t *testing.T) {
	const clients, rounds, window = 4, 24, 16
	client := newBenchFabric(t, 1, WithCompression(0)).client
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			entries := make([]Entry, window)
			keys := make([]uint64, window)
			dsts := make([][]byte, window)
			for r := 0; r < rounds; r++ {
				for i := range entries {
					keys[i] = uint64(g)<<32 | uint64(r)<<8 | uint64(i)
					entries[i] = Entry{Key: keys[i], Data: compress.GeneratePage(rng, 2)}
					dsts[i] = make([]byte, 4096)
				}
				ctx, cancel := context.WithCancel(context.Background())
				if r%2 == 1 {
					time.AfterFunc(time.Duration(rng.Intn(300))*time.Microsecond, cancel)
				}
				err := client.PutAll(ctx, 1, entries)
				cancel()
				if err != nil {
					if r%2 == 0 {
						t.Errorf("client %d round %d: PutAll: %v", g, r, err)
					}
					continue
				}
				if err := client.GetAllInto(context.Background(), 1, keys, dsts); err != nil {
					t.Errorf("client %d round %d: GetAllInto: %v", g, r, err)
					continue
				}
				for i, e := range entries {
					if !bytes.Equal(dsts[i], e.Data) {
						t.Errorf("client %d round %d: entry %d read back wrong", g, r, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkClientGetInto measures steady-state single-entry scatter reads
// into a reused caller buffer over loopback TCP — the zero-alloc counterpart
// of a Get loop.
func BenchmarkClientGetInto(b *testing.B) {
	bf := newBenchFabric(b, 1)
	ctx := context.Background()
	data := bytes.Repeat([]byte{0x5A}, 4096)
	if err := bf.client.Put(ctx, 1, 1, data); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bf.client.GetInto(ctx, 1, 1, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientGetAllIntoBatched measures the batched scatter-read data
// plane: one window of entries coming back through span-coalesced reads into
// reused caller buffers.
func BenchmarkClientGetAllIntoBatched(b *testing.B) {
	bf := newBenchFabric(b, 1)
	ctx := context.Background()
	entries := benchEntries(0, benchWindow, 4096, false)
	if err := bf.client.PutAll(ctx, 1, entries); err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, len(entries))
	dsts := make([][]byte, len(entries))
	for i := range entries {
		keys[i] = entries[i].Key
		dsts[i] = make([]byte, 4096)
	}
	b.SetBytes(benchWindow * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dsts {
			dsts[j] = dsts[j][:4096]
		}
		if err := bf.client.GetAllInto(ctx, 1, keys, dsts); err != nil {
			b.Fatal(err)
		}
	}
}
