package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/faulty"
	"godm/internal/replication"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

// benchFabric wires one client endpoint plus donor nodes over loopback TCP —
// the real-fabric rig the data-plane numbers in BENCH_dataplane.json come
// from.
type benchFabric struct {
	client *Client
	ep     *tcpnet.Endpoint
	donors []transport.NodeID
}

func newBenchFabric(b testing.TB, donors int, opts ...ClientOption) *benchFabric {
	return newBenchFabricRTT(b, donors, 0, opts...)
}

// newBenchFabricRTT is newBenchFabric with an emulated per-operation fabric
// round trip: every client-side verb sleeps rtt before hitting the wire, via
// the faulty delay middleware. Loopback TCP has no propagation delay and this
// is an in-process single-address-space rig, so without it every byte of a
// "remote" op is CPU work and concurrent fan-out has nothing to overlap; rtt
// restores the latency component that dominates a real disaggregated fabric.
func newBenchFabricRTT(b testing.TB, donors int, rtt time.Duration, opts ...ClientOption) *benchFabric {
	b.Helper()
	clientEP, err := tcpnet.Listen(100, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = clientEP.Close() })
	var clientVerbs transport.Endpoint = clientEP
	if rtt > 0 {
		inj := faulty.New(1)
		inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
			From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100, Delay: rtt})
		clientVerbs = inj.Wrap(clientEP)
	}
	bf := &benchFabric{ep: clientEP}
	for i := 1; i <= donors; i++ {
		id := transport.NodeID(i)
		ep, err := tcpnet.Listen(id, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = ep.Close() })
		dir, err := cluster.NewDirectory(cluster.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewNode(Config{
			ID: id, SharedPoolBytes: 1 << 20, SendPoolBytes: 1 << 20,
			RecvPoolBytes: 64 << 20, SlabSize: 1 << 20, ReplicationFactor: 1,
		}, ep, dir); err != nil {
			b.Fatal(err)
		}
		clientEP.AddPeer(id, ep.Addr())
		bf.donors = append(bf.donors, id)
	}
	bf.client = NewClient(clientVerbs, opts...)
	return bf
}

// clientStore adapts Client to replication.Store so the fan-out benchmarks
// measure the same control+data planes the node manager uses.
type clientStore struct{ c *Client }

func (s clientStore) Put(ctx context.Context, node replication.NodeID, id replication.EntryID, data []byte) error {
	return s.c.Put(ctx, transport.NodeID(node), uint64(id), data)
}

func (s clientStore) Get(ctx context.Context, node replication.NodeID, id replication.EntryID) ([]byte, error) {
	return s.c.Get(ctx, transport.NodeID(node), uint64(id))
}

func (s clientStore) Delete(ctx context.Context, node replication.NodeID, id replication.EntryID) error {
	return s.c.Delete(ctx, transport.NodeID(node), uint64(id))
}

func benchReplicatedWrite(b *testing.B, rtt time.Duration, opts ...replication.Option) {
	bf := newBenchFabricRTT(b, 3, rtt)
	repl, err := replication.New(clientStore{bf.client}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]replication.NodeID, len(bf.donors))
	for i, d := range bf.donors {
		nodes[i] = replication.NodeID(d)
	}
	ctx := context.Background()
	data := bytes.Repeat([]byte{0x5A}, 4096)
	// Warm round reserves the blocks; timed rounds overwrite in place, so
	// every iteration is exactly one 3-way data-plane fan-out.
	if err := repl.Write(ctx, nodes, 1, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)) * int64(len(nodes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := repl.Write(ctx, nodes, 1, data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRTT is the emulated per-op fabric round trip for the *RTT variants —
// the latency the parallel fan-out exists to overlap. 1ms is the floor the
// runtime's sleep granularity enforces on this class of host anyway (sub-ms
// nominal delays round up to it), so the nominal figure matches what is
// actually emulated. The raw (no-RTT) variants measure pure loopback, where
// on a small host the fan-out's win is bounded by spare cores, not by the
// fabric.
const benchRTT = time.Millisecond

func BenchmarkReplicatedWriteSerial(b *testing.B) {
	benchReplicatedWrite(b, 0, replication.WithSerialFanout())
}

func BenchmarkReplicatedWriteParallel(b *testing.B) {
	benchReplicatedWrite(b, 0)
}

func BenchmarkReplicatedWriteSerialRTT(b *testing.B) {
	benchReplicatedWrite(b, benchRTT, replication.WithSerialFanout())
}

func BenchmarkReplicatedWriteParallelRTT(b *testing.B) {
	benchReplicatedWrite(b, benchRTT)
}

// benchEntries builds count fresh entries of size bytes for iteration i.
// Incompressible by default so compression benchmarks opt in explicitly.
func benchEntries(i, count, size int, compressible bool) []Entry {
	entries := make([]Entry, count)
	for j := range entries {
		data := make([]byte, size)
		if compressible {
			copy(data, bytes.Repeat([]byte(fmt.Sprintf("entry-%d-%d ", i, j)), size/12+1))
		} else {
			xorshift(uint64(i*count+j+1), data)
		}
		entries[j] = Entry{Key: uint64(j + 1), Data: data}
	}
	return entries
}

const benchWindow = 64

func BenchmarkClientPutSingle(b *testing.B) {
	bf := newBenchFabric(b, 1)
	ctx := context.Background()
	entries := benchEntries(0, benchWindow, 4096, false)
	for _, e := range entries { // warm: reserve once, overwrite in place after
		if err := bf.client.Put(ctx, 1, e.Key, e.Data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(benchWindow * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			if err := bf.client.Put(ctx, 1, e.Key, e.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkClientPutBatched(b *testing.B) {
	bf := newBenchFabric(b, 1)
	ctx := context.Background()
	entries := benchEntries(0, benchWindow, 4096, false)
	b.SetBytes(benchWindow * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bf.client.PutAll(ctx, 1, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientPutCompressed(b *testing.B) {
	bf := newBenchFabric(b, 1, WithCompression(0))
	ctx := context.Background()
	entries := benchEntries(0, benchWindow, 4096, true)
	b.SetBytes(benchWindow * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bf.client.PutAll(ctx, 1, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientGetBatched(b *testing.B) {
	bf := newBenchFabric(b, 1)
	ctx := context.Background()
	entries := benchEntries(0, benchWindow, 4096, false)
	if err := bf.client.PutAll(ctx, 1, entries); err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, len(entries))
	for i := range entries {
		keys[i] = entries[i].Key
	}
	b.SetBytes(benchWindow * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bf.client.GetAll(ctx, 1, keys); err != nil {
			b.Fatal(err)
		}
	}
}
