package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"godm/internal/transport"
)

// TestVectoredFrameGolden pins the wire format of the vectored send path: a
// CallV frame captured off a raw TCP listener must be byte-identical to the
// frame the reference codec (writeRequest) assembles from the
// pre-concatenated payload. This is what makes the writev rewrite invisible
// to peers running the sequential framing.
func TestVectoredFrameGolden(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type serverResult struct {
		captured []byte
		req      request
		err      error
	}
	done := make(chan serverResult, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- serverResult{err: err}
			return
		}
		defer conn.Close()
		var captured bytes.Buffer
		br := bufio.NewReader(io.TeeReader(conn, &captured))
		req, err := readRequest(br)
		if err != nil {
			done <- serverResult{err: err}
			return
		}
		bw := bufio.NewWriter(conn)
		if err := writeResponse(bw, req.id, statusOK, nil); err != nil {
			done <- serverResult{err: err}
			return
		}
		if err := bw.Flush(); err != nil {
			done <- serverResult{err: err}
			return
		}
		// Keep the payload: the comparison below reads it. It is pooled, but a
		// test process leaking one pool entry is fine.
		done <- serverResult{captured: append([]byte(nil), captured.Bytes()...), req: req}
	}()

	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer(2, ln.Addr().String())

	parts := [][]byte{
		bytes.Repeat([]byte{0xA1}, 300),
		{},
		bytes.Repeat([]byte{0xB2}, 4096),
		{0xC3, 0xC4, 0xC5},
	}
	var flat []byte
	for _, p := range parts {
		flat = append(flat, p...)
	}
	if _, err := a.CallV(context.Background(), 2, parts); err != nil {
		t.Fatalf("CallV: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("server side: %v", res.err)
	}
	if res.req.op != opCall || res.req.from != 1 {
		t.Fatalf("decoded frame = op %d from %d", res.req.op, res.req.from)
	}
	if !bytes.Equal(res.req.payload, flat) {
		t.Fatal("vectored payload did not arrive as the concatenation of the iovec")
	}

	var ref bytes.Buffer
	w := bufio.NewWriter(&ref)
	if err := writeRequest(w, res.req.op, res.req.id, 1, res.req.region, res.req.offset, res.req.n, flat); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.captured, ref.Bytes()) {
		t.Errorf("vectored frame differs from reference codec assembly:\n got %d bytes %x...\nwant %d bytes %x...",
			len(res.captured), res.captured[:min(48, len(res.captured))],
			ref.Len(), ref.Bytes()[:min(48, ref.Len())])
	}
}

// TestReadIntoZeroAlloc pins the tentpole's allocation contract: a
// steady-state one-sided read that scatters into a caller buffer allocates
// nothing on either side of the loopback pair — pooled request headers,
// pooled result channels, pooled server-side response staging, and a
// response payload that lands directly in dst.
func TestReadIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	a, b := pairUp(t)
	if _, err := b.RegisterRegion(1, 1<<20); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seed := bytes.Repeat([]byte{0x5A}, 4096)
	if err := a.WriteRegion(ctx, 2, 1, 0, seed); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4096)
	for i := 0; i < 16; i++ { // warm every pool on both endpoints
		if err := a.ReadRegionInto(ctx, 2, 1, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.ReadRegionInto(ctx, 2, 1, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("ReadRegionInto allocates %.1f objects/op in steady state, want 0", allocs)
	}
	if !bytes.Equal(dst, seed) {
		t.Fatal("scatter read returned wrong bytes")
	}
}

// BenchmarkTCPNetReadInto is BenchmarkTCPNetParallelRead with the scatter
// verb: 8 readers, each with its own destination buffer, no per-op payload
// allocation.
func BenchmarkTCPNetReadInto(b *testing.B) {
	const workers = 8
	a, peer := benchPair(b)
	if _, err := peer.RegisterRegion(1, 1<<20); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	seed := bytes.Repeat([]byte{0x5A}, benchPayload)
	if err := a.WriteRegion(ctx, 2, 1, 0, seed); err != nil {
		b.Fatal(err)
	}
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
			dst := make([]byte, benchPayload)
			for i := 0; i < n; i++ {
				if err := a.ReadRegionInto(ctx, 2, 1, 0, dst); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// TestAliasedCallResponseSurvivesPooledPayload: call payloads are drawn from
// the frame pool and a handler sees its payload only until it returns — but
// the pooled buffer is released by the flush that hands the response to the
// kernel, not by the handler's return, so even a handler that answers with a
// view of its payload (as this package's echo handlers do) gets the right
// bytes back to its caller while other calls recycle the pool around it.
func TestAliasedCallResponseSurvivesPooledPayload(t *testing.T) {
	a, peer := benchPair(t)
	peer.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return payload[8 : len(payload)-8], nil
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				msg := bytes.Repeat([]byte{byte(w*50 + i)}, 9000)
				got, err := a.CallV(ctx, 2, [][]byte{msg[:10], msg[10:]})
				if err != nil {
					t.Errorf("CallV: %v", err)
					return
				}
				if !bytes.Equal(got, msg[8:len(msg)-8]) {
					t.Errorf("caller %d call %d: the answer is not the view of the payload the handler returned", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCallPayloadsArePooled: in steady state a 64 KiB two-sided call costs
// no payload-sized allocation on either side of the loopback — the request
// buffer the handler sees is recycled, and so is the pooled answer the caller
// releases once it is done with it (scripts/alloc_budget.sh holds the same
// line on the benchmark).
func TestCallPayloadsArePooled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, peer := benchPair(t)
	peer.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return []byte{byte(len(payload) >> 8)}, nil
	})
	vec := [][]byte{make([]byte, 32), make([]byte, 64<<10)}
	ctx := context.Background()
	call := func() {
		resp, err := a.CallV(ctx, 2, vec)
		if err != nil {
			t.Fatal(err)
		}
		putBuf(resp)
	}
	for i := 0; i < 4*a.lanes; i++ {
		call() // dial every lane, fill the pool
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 200
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 4<<10 {
		t.Errorf("a 64 KiB call allocates %d B on average, want no payload-sized allocation", perCall)
	}
}

// TestHandlerAnswerReleasedOnce: a handler's answer is handed to the
// transport, which releases it after the flush that writes it — once, also
// when the answer is the request payload itself, released with it. Built with
// -tags bufdebug a second release panics and a release before the write
// poisons the bytes the caller checks; the caller releases every answer too,
// as core does, so the pool recycles both sides' buffers under the calls.
func TestHandlerAnswerReleasedOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler transport.Handler
		answer  func(msg []byte) []byte
	}{
		{"echo", func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
			return payload, nil
		}, func(msg []byte) []byte { return msg }},
		{"pooled", func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
			answer := getBuf(len(payload) / 2)
			for i := range answer {
				answer[i] = ^payload[i]
			}
			return answer, nil
		}, func(msg []byte) []byte {
			want := make([]byte, len(msg)/2)
			for i := range want {
				want[i] = ^msg[i]
			}
			return want
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, peer := benchPair(t)
			peer.SetHandler(tc.handler)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 250; i++ {
						msg := bytes.Repeat([]byte{byte(w), byte(i)}, 3000+i)
						got, err := a.Call(context.Background(), 2, msg)
						if err != nil {
							t.Errorf("Call: %v", err)
							return
						}
						if !bytes.Equal(got, tc.answer(msg)) {
							t.Errorf("caller %d call %d: the answer arrived altered", w, i)
							return
						}
						putBuf(got)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestCallerRefillsItsPayloadRightAfterTheCall: a payload slice is lent to
// the transport only until the verb returns, so a caller may overwrite it the
// moment it has its answer — the one-round-trip put does, re-encoding shards
// into the same pooled buffers. Meaningful under -race: the detector logs the
// socket write's read of the slice only after the syscall returns, which can
// be after the answer arrived, and used to report the caller's next write as
// racing with it (the long-standing TestChaosStripeDegradedReadTCP flake).
func TestCallerRefillsItsPayloadRightAfterTheCall(t *testing.T) {
	a, peer := benchPair(t)
	peer.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return []byte{payload[0]}, nil
	})
	if _, err := peer.RegisterRegion(1, 64<<10); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	buf := make([]byte, 64<<10)
	for i := 0; i < 500; i++ {
		for j := 0; j < len(buf); j += 512 {
			buf[j] = byte(i)
		}
		if got, err := a.Call(ctx, 2, buf); err != nil || got[0] != byte(i) {
			t.Fatalf("call %d: %v, %v", i, got, err)
		}
		buf[0]++
		if err := a.WriteRegion(ctx, 2, 1, 0, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}
