package tcpnet

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"godm/internal/transport"
)

// benchPair creates two endpoints on loopback that know each other, for use
// from both tests and benchmarks.
func benchPair(tb testing.TB) (*Endpoint, *Endpoint) {
	tb.Helper()
	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	b, err := Listen(2, "127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		tb.Fatal(err)
	}
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	tb.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

const benchPayload = 4096

// warmLanes runs op once per connection lane of e, concurrently, before the
// timer starts: every lane is dialled, both ends have their 64 KiB readers,
// and the frame pool holds a buffer per concurrent op. What a benchmark then
// reports per op is the steady state — scripts/alloc_budget.sh budgets that,
// and one-time set-up charged to a fixed -benchtime Nx would read as ~180 B/op
// of phantom traffic at N = 2000.
func warmLanes(b *testing.B, e *Endpoint, op func() error) {
	b.Helper()
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 4*e.lanes; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := op(); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkTCPNetSerialCall measures stop-and-wait round trips: one goroutine
// issuing control-plane calls back to back.
func BenchmarkTCPNetSerialCall(b *testing.B) {
	a, peer := benchPair(b)
	peer.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return append([]byte(nil), payload...), nil // the payload is only lent
	})
	msg := bytes.Repeat([]byte{0xAB}, benchPayload)
	ctx := context.Background()
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call(ctx, 2, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPNetPipelinedCall measures many goroutines issuing calls to the
// same peer concurrently — the case the multiplexed transport pipelines over
// one connection instead of serializing.
func BenchmarkTCPNetPipelinedCall(b *testing.B) {
	a, peer := benchPair(b)
	peer.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return append([]byte(nil), payload...), nil // the payload is only lent
	})
	msg := bytes.Repeat([]byte{0xAB}, benchPayload)
	b.SetBytes(benchPayload)
	b.SetParallelism(8) // 8 concurrent callers regardless of GOMAXPROCS
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			if _, err := a.Call(ctx, 2, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCPNetSerialRead measures one goroutine issuing one-sided reads.
func BenchmarkTCPNetSerialRead(b *testing.B) {
	benchRead(b, 1)
}

// BenchmarkTCPNetParallelRead measures 8 concurrent one-sided readers against
// a single peer — the acceptance benchmark for the multiplexed transport.
func BenchmarkTCPNetParallelRead(b *testing.B) {
	benchRead(b, 8)
}

func benchRead(b *testing.B, workers int) {
	a, peer := benchPair(b)
	if _, err := peer.RegisterRegion(1, 1<<20); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	seed := bytes.Repeat([]byte{0x5A}, benchPayload)
	if err := a.WriteRegion(ctx, 2, 1, 0, seed); err != nil {
		b.Fatal(err)
	}
	warmLanes(b, a, func() error {
		_, err := a.ReadRegion(ctx, 2, 1, 0, benchPayload)
		return err
	})
	b.SetBytes(benchPayload)
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / workers
	extra := b.N % workers
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := a.ReadRegion(ctx, 2, 1, 0, benchPayload); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// BenchmarkTCPNetParallelWrite measures 8 concurrent one-sided writers to
// disjoint offsets of a single peer region.
func BenchmarkTCPNetParallelWrite(b *testing.B) {
	const workers = 8
	a, peer := benchPair(b)
	if _, err := peer.RegisterRegion(1, workers*benchPayload); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	msg := bytes.Repeat([]byte{0xC3}, benchPayload)
	b.SetBytes(benchPayload)
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / workers
	extra := b.N % workers
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			off := int64(w * benchPayload)
			for i := 0; i < n; i++ {
				if err := a.WriteRegion(ctx, 2, 1, off, msg); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}

// BenchmarkTCPNetCallV64K measures the shape of a remote put: a two-sided
// gather call of a small header plus a 64 KiB body, answered with a few
// bytes. scripts/alloc_budget.sh holds it to nothing on either side: the
// caller queues the body as an iovec, the serving side reads it into a pooled
// buffer it releases once the answer is flushed, a persistent worker runs the
// handler, and the answer lands in a pooled buffer the caller releases. The
// handler's shared 9-byte answer is one bufpool.Put drops.
func BenchmarkTCPNetCallV64K(b *testing.B) {
	const body = 64 << 10
	a, peer := benchPair(b)
	ack := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}
	peer.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		if len(payload) != 32+body {
			return nil, fmt.Errorf("payload is %d bytes", len(payload))
		}
		return ack, nil
	})
	vec := [][]byte{make([]byte, 32), bytes.Repeat([]byte{0xAB}, body)}
	ctx := context.Background()
	call := func() error {
		resp, err := a.CallV(ctx, 2, vec)
		putBuf(resp)
		return err
	}
	warmLanes(b, a, call)
	b.SetBytes(body)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := call(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
