package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"godm/internal/compress"
	"godm/internal/des"
	"godm/internal/transport"
)

// donorShape gives a rig's nodes a receive pool laid out like a real donor's:
// 1 MiB slabs under the default shard count, so a 64-page window is a small
// part of one slab.
func donorShape(recvBytes int64) func(*Config) {
	return func(cfg *Config) {
		cfg.SlabSize = 1 << 20
		cfg.SharedPoolBytes, cfg.SendPoolBytes = 1<<20, 1<<20
		cfg.RecvPoolBytes = recvBytes
	}
}

// windowRig is one donor behind a verb-counting owner endpoint and the page
// pool windows are drawn from.
type windowRig struct {
	*putRig
	cv    *countingVerbs
	donor *Node
	pages [][]byte // ratio-2.0 pages: each compresses into the 2 KiB class
}

const testWindow = 64 // entries per window, the benchmark's

func newWindowRig(t *testing.T, fabric string, shape func(*Config)) *windowRig {
	t.Helper()
	w := &windowRig{cv: &countingVerbs{}}
	w.putRig = newShapedPutRig(t, fabric, 2, "", func(ep transport.Endpoint) transport.Endpoint {
		w.cv.Endpoint = ep
		return w.cv
	}, shape)
	w.cv.reset(0)
	w.donor = w.nodes[1]
	prng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		w.pages = append(w.pages, compress.GeneratePage(prng, 2.0))
	}
	return w
}

// stamp fills dst with the page key selects, marked with the key so that every
// entry is distinct and a read is checked without keeping what was written.
func (w *windowRig) stamp(dst []byte, key uint64) []byte {
	dst = append(dst[:0], w.pages[key%uint64(len(w.pages))]...)
	binary.LittleEndian.PutUint64(dst, key)
	return dst
}

func windowKeysOf(client, round int) []uint64 {
	keys := make([]uint64, testWindow)
	for j := range keys {
		keys[j] = uint64(client)<<40 | uint64(round)<<8 | uint64(j)
	}
	return keys
}

// readWindow reads one window back with GetAllInto, checks every byte and
// returns how many one-sided reads it took.
func (w *windowRig) readWindow(ctx context.Context, t *testing.T, cl *Client, keys []uint64) int {
	t.Helper()
	dsts := make([][]byte, len(keys))
	for i := range dsts {
		dsts[i] = make([]byte, compress.PageSize)
	}
	w.cv.reset(0)
	if err := cl.GetAllInto(ctx, 2, keys, dsts); err != nil {
		t.Errorf("GetAllInto of window %#x: %v", keys[0], err)
		return 0
	}
	var want []byte
	for i, k := range keys {
		if want = w.stamp(want, k); !bytes.Equal(dsts[i], want) {
			t.Errorf("key %#x read back wrong", k)
		}
	}
	return w.cv.reads
}

// each runs body once per client, at once: as simulated processes on the
// simulated fabric, as goroutines over sockets.
func (w *windowRig) each(t *testing.T, clients int, body func(ctx context.Context, i int)) {
	t.Helper()
	w.run(t, func(ctx context.Context) {
		if p, ok := des.FromContext(ctx); ok {
			for i := 0; i < clients; i++ {
				p.Env().Go(fmt.Sprintf("client%d", i), func(q *des.Proc) {
					body(des.NewContext(context.Background(), q), i)
				})
			}
			return // the environment runs until every process has returned
		}
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(ctx, i)
			}()
		}
		wg.Wait()
	})
}

// TestWindowReadsBackInOneRead is the guarantee PutAll and GetAllInto state,
// under the load that used to break it: two clients run the benchmark's round
// on one donor at once — park a 64-page compressed window, read back an older
// one, release an older one still — so their puts and releases interleave on
// the donor's shards for a few hundred rounds. Afterwards every window still
// parked must come back in exactly one one-sided read. With the slab's free
// blocks kept as a stack, the first interleaved release shuffled the stack,
// the shuffle was handed to the next window and freed again in that order,
// and a window cost some 30 reads for the rest of the run.
func TestWindowReadsBackInOneRead(t *testing.T) {
	const clients, rounds, readLag, deleteLag = 2, 200, 8, 16
	for _, fabric := range []string{"sim", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			w := newWindowRig(t, fabric, donorShape(16<<20))
			cls := make([]*Client, clients)
			for i := range cls {
				cls[i] = NewClient(w.cv, WithCompression(0))
			}
			w.each(t, clients, func(ctx context.Context, i int) {
				entries := make([]Entry, testWindow)
				dsts := make([][]byte, testWindow)
				for j := range dsts {
					dsts[j] = make([]byte, compress.PageSize)
				}
				for r := 0; r < rounds; r++ {
					for j, k := range windowKeysOf(i, r) {
						entries[j] = Entry{Key: k, Data: w.stamp(entries[j].Data, k)}
					}
					if err := cls[i].PutAll(ctx, 2, entries); err != nil {
						t.Errorf("client %d round %d: PutAll: %v", i, r, err)
						return
					}
					if r >= readLag {
						for j := range dsts {
							dsts[j] = dsts[j][:compress.PageSize]
						}
						if err := cls[i].GetAllInto(ctx, 2, windowKeysOf(i, r-readLag), dsts); err != nil {
							t.Errorf("client %d round %d: GetAllInto: %v", i, r, err)
							return
						}
					}
					if r >= deleteLag {
						if err := cls[i].DeleteAll(ctx, 2, windowKeysOf(i, r-deleteLag)); err != nil {
							t.Errorf("client %d round %d: DeleteAll: %v", i, r, err)
							return
						}
					}
				}
			})
			if t.Failed() {
				return
			}
			w.run(t, func(ctx context.Context) {
				for i, cl := range cls {
					for r := rounds - deleteLag; r < rounds; r++ {
						if reads := w.readWindow(ctx, t, cl, windowKeysOf(i, r)); reads != 1 {
							t.Errorf("client %d window %d came back in %d reads, want 1", i, r, reads)
						}
					}
				}
			})
			if st := w.donor.RecvPool().Stats(); st.LiveBlocks != clients*deleteLag*testWindow {
				t.Errorf("donor holds %d blocks, want %d", st.LiveBlocks, clients*deleteLag*testWindow)
			}
		})
	}
}

// TestMixedWindowReadsBackInOneReadPerClass: a window whose pages alternate
// between compressible (2 KiB class) and not (4 KiB class) is parked as one
// run per class, whatever order the classes come in, and read back so.
func TestMixedWindowReadsBackInOneReadPerClass(t *testing.T) {
	for _, fabric := range []string{"sim", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			w := newWindowRig(t, fabric, donorShape(16<<20))
			prng := rand.New(rand.NewSource(2))
			for i := 1; i < len(w.pages); i += 2 {
				w.pages[i] = compress.GeneratePage(prng, 1.0)
			}
			cl := NewClient(w.cv, WithCompression(0))
			w.run(t, func(ctx context.Context) {
				for round := 0; round < 3; round++ {
					keys := windowKeysOf(0, round)
					entries := make([]Entry, len(keys))
					for j, k := range keys {
						entries[j] = Entry{Key: k, Data: w.stamp(nil, k)}
					}
					if err := cl.PutAll(ctx, 2, entries); err != nil {
						t.Fatalf("PutAll: %v", err)
					}
					if reads := w.readWindow(ctx, t, cl, keys); reads != 2 {
						t.Errorf("window %d of two size classes came back in %d reads, want 2", round, reads)
					}
				}
			})
			if live, want := w.donor.RecvPool().Stats().LiveBytes, int64(3*testWindow/2*(2048+4096)); live != want {
				t.Errorf("donor holds %d live bytes, want %d: half the pages in each class", live, want)
			}
		})
	}
}

// TestWindowIntoFragmentedPool: with the budget spent and no two free blocks
// adjacent, a window still parks — pieced together from the free blocks of
// whatever shard has them — and reads back right, in as many reads as it has
// pieces. One block more than there is fails and takes nothing.
func TestWindowIntoFragmentedPool(t *testing.T) {
	const blocks = 64 // 4 slabs of 16 4 KiB blocks
	w := newWindowRig(t, "sim", func(cfg *Config) {
		cfg.SlabSize = 64 << 10
		cfg.SharedPoolBytes, cfg.SendPoolBytes = 64<<10, 64<<10
		cfg.RecvPoolBytes = blocks * 4096
	})
	prng := rand.New(rand.NewSource(3))
	for i := range w.pages {
		w.pages[i] = compress.GeneratePage(prng, 1.0) // raw: one 4 KiB block each
	}
	cl := NewClient(w.cv)
	w.run(t, func(ctx context.Context) {
		for k := uint64(0); k < blocks; k++ {
			if err := cl.Put(ctx, 2, 1<<32|k, w.stamp(nil, 1<<32|k)); err != nil {
				t.Fatalf("filling the pool, block %d: %v", k, err)
			}
		}
		// Free every other block in address order.
		var odd []uint64
		for ck, h := range cl.handles {
			if h.offset/4096%2 == 1 {
				odd = append(odd, ck.key)
			}
		}
		if err := cl.DeleteAll(ctx, 2, odd); err != nil {
			t.Fatal(err)
		}
		pool := w.donor.RecvPool()
		before := pool.Stats()
		if before.RegisteredBytes != before.MaxBytes || before.LiveBlocks != blocks/2 {
			t.Fatalf("the test needs a full-budget, half-empty pool: %+v", before)
		}

		window := func(n int) (keys []uint64, entries []Entry) {
			for j := 0; j < n; j++ {
				k := 2<<32 | uint64(j)
				keys = append(keys, k)
				entries = append(entries, Entry{Key: k, Data: w.stamp(nil, k)})
			}
			return keys, entries
		}
		if _, entries := window(blocks/2 + 1); cl.PutAll(ctx, 2, entries) == nil {
			t.Fatal("a window of one block more than is free was parked")
		}
		if after := pool.Stats(); after != before {
			t.Fatalf("the refused window moved the pool: %+v, was %+v", after, before)
		}
		keys, entries := window(blocks/2 - 8)
		if err := cl.PutAll(ctx, 2, entries); err != nil {
			t.Fatalf("PutAll into the fragmented pool: %v", err)
		}
		if reads := w.readWindow(ctx, t, cl, keys); reads != len(keys) {
			t.Errorf("a window of %d isolated blocks came back in %d reads", len(keys), reads)
		}
		if st := pool.Stats(); st.LiveBlocks != blocks-8 {
			t.Errorf("donor holds %d blocks, want %d", st.LiveBlocks, blocks-8)
		}
	})
}

// TestRefusedSiblingPutAllocatesNothing: an on-behalf window is refused for a
// key the donor already hosts before any block is taken for it — the donor
// does not so much as register a slab for the entries ahead of the refused
// one.
func TestRefusedSiblingPutAllocatesNothing(t *testing.T) {
	tc := newTestCluster(t, 1, smallConfig)
	n := tc.nodes[0]
	const owner = transport.NodeID(9)
	ctx := context.Background()
	put := func(from transport.NodeID, p putParts) []byte {
		t.Helper()
		resp, err := n.handleCall(ctx, from, putMessage(p))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := put(owner, putParts{Entries: []putEntry{{Key: 5, Class: 4096, Len: 1}}, Payload: []byte{5}}); resp[0] != stOK {
		t.Fatalf("the owner's own put: status %d", resp[0])
	}
	before := n.recv.Stats()
	// A migration on the owner's behalf: two new keys of a class the donor has
	// no slab for yet, then the key it already hosts.
	resp := put(3, putParts{Owner: int32(owner), Entries: []putEntry{
		{Key: 100, Class: 1024, Len: 1}, {Key: 101, Class: 1024, Len: 1}, {Key: 5, Class: 1024, Len: 1},
	}, Payload: []byte{1, 2, 3}})
	if resp[0] != stNoSpace {
		t.Fatalf("an on-behalf put for a hosted key: status %d, want stNoSpace", resp[0])
	}
	if after := n.recv.Stats(); after != before {
		t.Fatalf("the refused put touched the pool: %+v, was %+v", after, before)
	}
	if n.HostsRemoteKey(owner, 100) || n.HostsRemoteKey(owner, 101) {
		t.Fatal("the refused put left owner records behind")
	}
}
