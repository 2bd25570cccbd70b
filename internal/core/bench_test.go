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

// benchFabric wires one client endpoint plus donor nodes over loopback TCP.
type benchFabric struct {
	client *Client
	ep     *tcpnet.Endpoint
	verbs  transport.Endpoint // ep, behind the delay middleware when rtt > 0
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
	bf := &benchFabric{ep: clientEP, verbs: clientVerbs}
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

// benchReplicatedWrite drives the rf3 policy over the production store: an
// owner node on the client endpoint writes one entry to the three donors.
func benchReplicatedWrite(b *testing.B, rtt time.Duration) {
	bf := newBenchFabricRTT(b, 3, rtt)
	dir, err := cluster.NewDirectory(cluster.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	owner, err := NewNode(Config{
		ID: bf.ep.ID(), SharedPoolBytes: 1 << 20, SendPoolBytes: 1 << 20,
		RecvPoolBytes: 1 << 20, SlabSize: 1 << 20, ReplicationFactor: 3,
	}, bf.verbs, dir)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]replication.NodeID, len(bf.donors))
	for i, d := range bf.donors {
		nodes[i] = replication.NodeID(d)
	}
	ctx := context.Background()
	data := bytes.Repeat([]byte{0x5A}, 4096)
	// Warm round parks the blocks; every timed round displaces them, the
	// release riding the put, so an iteration is exactly one 3-way fan-out.
	if err := owner.policy.Write(ctx, nodes, 1, len(data), data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)) * int64(len(nodes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := owner.policy.Write(ctx, nodes, 1, len(data), data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRTT is the emulated per-op fabric round trip for the RTT variant —
// the latency the fan-out exists to overlap. 1ms is the floor the
// runtime's sleep granularity enforces on this class of host anyway (sub-ms
// nominal delays round up to it), so the nominal figure matches what is
// actually emulated. The raw (no-RTT) variants measure pure loopback, where
// on a small host the fan-out's win is bounded by spare cores, not by the
// fabric.
const benchRTT = time.Millisecond

func BenchmarkReplicatedWrite(b *testing.B)    { benchReplicatedWrite(b, 0) }
func BenchmarkReplicatedWriteRTT(b *testing.B) { benchReplicatedWrite(b, benchRTT) }

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
	for _, e := range entries { // warm: the timed loop overwrites
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
