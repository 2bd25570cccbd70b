package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/faulty"
	"godm/internal/replication"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

// hostRig is one donor node plus several independent clients, each with its
// own loopback TCP endpoint and its own emulated fabric RTT. It is the
// host-path mirror of benchFabric: there the client side fans out to many
// donors; here many clients converge on one host, so the donor's pools and
// owner index are what the numbers measure.
type hostRig struct {
	clients []*Client
}

// hostBenchRTT is the nominal per-verb fabric round trip. 1 ms for the same
// reason as the dataplane benchmarks: this host's sleep granularity floors
// sub-ms delays there anyway, and the quantity under test is how much of
// that latency concurrent clients can overlap, not its absolute size.
const hostBenchRTT = time.Millisecond

func newHostRig(b *testing.B, clients int, rtt time.Duration) *hostRig {
	b.Helper()
	donorEP, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = donorEP.Close() })
	dir, err := cluster.NewDirectory(cluster.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := NewNode(Config{
		ID: 1, SharedPoolBytes: 1 << 20, SendPoolBytes: 1 << 20,
		RecvPoolBytes: 64 << 20, SlabSize: 1 << 20, ReplicationFactor: 1,
	}, donorEP, dir); err != nil {
		b.Fatal(err)
	}
	rig := &hostRig{}
	for i := 0; i < clients; i++ {
		ep, err := tcpnet.Listen(transport.NodeID(100+i), "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = ep.Close() })
		ep.AddPeer(1, donorEP.Addr())
		var verbs transport.Endpoint = ep
		if rtt > 0 {
			inj := faulty.New(int64(i) + 1)
			inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
				From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100, Delay: rtt})
			verbs = inj.Wrap(ep)
		}
		rig.clients = append(rig.clients, NewClient(verbs))
	}
	return rig
}

// runHostMixed drives b.N mixed host-path rounds — Put (alloc+write), Get
// (read), Delete every other round (free) — split across the rig's clients.
// Classes are mixed (600–3648 bytes rounds to 1 KiB–4 KiB slab classes) and
// every client works a disjoint key space, so all contention is on the
// host's pools and index, not on the keys themselves.
func runHostMixed(b *testing.B, rig *hostRig) {
	b.Helper()
	ctx := context.Background()
	clients := len(rig.clients)
	perClient := b.N / clients
	if b.N%clients != 0 {
		perClient++
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w, c := range rig.clients {
		wg.Add(1)
		go func(w int, c *Client) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				key := uint64(w)<<32 | uint64(i)
				data := bytes.Repeat([]byte{byte(w + 1)}, 600+1016*((w+i)%4))
				if err := c.Put(ctx, 1, key, data); err != nil {
					b.Errorf("client %d: Put: %v", w, err)
					return
				}
				if _, err := c.Get(ctx, 1, key); err != nil {
					b.Errorf("client %d: Get: %v", w, err)
					return
				}
				if i%2 == 0 {
					if err := c.Delete(ctx, 1, key); err != nil {
						b.Errorf("client %d: Delete: %v", w, err)
						return
					}
				}
			}
		}(w, c)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkHostParallelMixed is the tentpole's acceptance benchmark: N
// concurrent clients, one host, 1 ms emulated RTT, mixed
// alloc/write/read/free. clients=1 is the serial baseline; clients=4 must
// clear 2x its throughput. On this single-CPU rig the scaling comes from
// overlapping round trips that the host can now admit concurrently instead
// of serializing behind one node lock and one pool lock.
func BenchmarkHostParallelMixed(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			rig := newHostRig(b, clients, hostBenchRTT)
			runHostMixed(b, rig)
		})
	}
}

// BenchmarkHostParallelBatch measures the batched host path under the same
// convergence: each round is an 8-entry PutAll + GetAll + DeleteAll window,
// exercising batch alloc, span-coalesced writes, and the
// one-hold-of-the-index-lock batched free.
func BenchmarkHostParallelBatch(b *testing.B) {
	for _, clients := range []int{1, 4} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			rig := newHostRig(b, clients, hostBenchRTT)
			ctx := context.Background()
			const window = 8
			perClient := b.N / clients
			if b.N%clients != 0 {
				perClient++
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for w, c := range rig.clients {
				wg.Add(1)
				go func(w int, c *Client) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						entries := make([]Entry, window)
						keys := make([]uint64, window)
						for j := range entries {
							key := uint64(w)<<32 | uint64(i*window+j)
							keys[j] = key
							entries[j] = Entry{Key: key, Data: bytes.Repeat([]byte{byte(j + 1)}, 1024)}
						}
						if err := c.PutAll(ctx, 1, entries); err != nil {
							b.Errorf("client %d: PutAll: %v", w, err)
							return
						}
						if _, err := c.GetAll(ctx, 1, keys); err != nil {
							b.Errorf("client %d: GetAll: %v", w, err)
							return
						}
						if err := c.DeleteAll(ctx, 1, keys); err != nil {
							b.Errorf("client %d: DeleteAll: %v", w, err)
							return
						}
					}
				}(w, c)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}

// BenchmarkHostWindow64 is the donor's side of one window with no transport
// under it: handlePut of 64 entries of the 2 KiB class, then handleRelease of
// the window parked 16 rounds earlier, on a donor shaped like bench/'s (64 MiB
// receive pool, 1 MiB slabs). The payloads are 64 bytes, so what is timed is
// the bookkeeping — allocation, owner records, release checks, free — not the
// copy. scripts/alloc_budget.sh holds it to its two replies: the owner index
// allocates nothing in steady state.
func BenchmarkHostWindow64(b *testing.B) {
	const window, resident, owner = 64, 16, transport.NodeID(9)
	tc := newTestCluster(b, 1, func(id transport.NodeID) Config {
		return Config{
			ID: id, SharedPoolBytes: 1 << 20, SendPoolBytes: 1 << 20,
			RecvPoolBytes: 64 << 20, SlabSize: 1 << 20, ReplicationFactor: 1,
		}
	})
	n := tc.nodes[0]
	entries := make([]putEntry, window)
	payload := make([]byte, window*64)
	for i := range entries {
		entries[i] = putEntry{Class: 2048, Len: 64}
	}
	msg := append(encodePutReq(0, replication.Shard{}, entries, nil), payload...)
	rels := make([][]byte, resident)
	for i := range rels {
		rels[i] = make([]byte, 1+window*releaseEntryBytes)
		rels[i][0] = opFree
	}
	round := func(i int) {
		base := uint64(i) * window
		for j := 0; j < window; j++ {
			binary.BigEndian.PutUint64(msg[putHeaderBytes+j*putEntryBytes:], base+uint64(j))
		}
		req, err := decodePutReq(msg)
		if err != nil {
			b.Fatal(err)
		}
		offs, err := decodePutResp(n.handlePut(owner, req), window)
		if err != nil {
			b.Fatal(err)
		}
		rel := rels[i%resident]
		if i >= resident {
			old, err := decodeReleaseReq(rel)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := checkOKResp(n.handleRelease(owner, old)); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < window; j++ {
			binary.BigEndian.PutUint64(rel[1+j*releaseEntryBytes:], base+uint64(j))
			binary.BigEndian.PutUint64(rel[1+j*releaseEntryBytes+8:], uint64(offs.offset(j)))
		}
	}
	for i := 0; i < 4*resident; i++ {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(4*resident + i)
	}
	b.StopTimer()
	if st := n.recv.Stats(); st.LiveBlocks != resident*window {
		b.Fatalf("%d live blocks after the run, want the %d resident windows", st.LiveBlocks, resident)
	}
}
