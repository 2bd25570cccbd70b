package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godm/internal/transport"
)

// TestConcurrentMixedStress hammers one peer with many goroutines issuing a
// mix of Call / WriteRegion / ReadRegion over the shared multiplexed
// connection. Run under -race; each goroutine owns a disjoint slice of the
// region, matching RDMA's rule that overlapping concurrent access is the
// application's problem.
func TestConcurrentMixedStress(t *testing.T) {
	const (
		workers = 32
		slot    = 128
		iters   = 50
	)
	a, b := pairUp(t)
	b.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return payload, nil
	})
	if _, err := b.RegisterRegion(1, workers*slot); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			off := int64(w * slot)
			for i := 0; i < iters; i++ {
				want := bytes.Repeat([]byte{byte(w), byte(i)}, slot/2)
				if err := a.WriteRegion(ctx, 2, 1, off, want); err != nil {
					t.Errorf("worker %d write: %v", w, err)
					return
				}
				got, err := a.ReadRegion(ctx, 2, 1, off, slot)
				if err != nil {
					t.Errorf("worker %d read: %v", w, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d iter %d: read mismatch", w, i)
					return
				}
				msg := []byte(fmt.Sprintf("w%d-i%d", w, i))
				resp, err := a.Call(ctx, 2, msg)
				if err != nil {
					t.Errorf("worker %d call: %v", w, err)
					return
				}
				if !bytes.Equal(resp, msg) {
					t.Errorf("worker %d iter %d: call echo mismatch", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := a.Metrics().Gauge("rpc_inflight").Value(); n != 0 {
		t.Fatalf("rpc_inflight = %d after quiescing, want 0", n)
	}
	if a.Metrics().Counter("bytes_tx").Value() == 0 || a.Metrics().Counter("bytes_rx").Value() == 0 {
		t.Fatal("byte counters did not move")
	}
}

// TestContextCancelMidRPC verifies a Call blocked on a slow handler returns
// promptly with context.Canceled, long before the handler finishes.
func TestContextCancelMidRPC(t *testing.T) {
	a, b := pairUp(t)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseHandler := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseHandler) // let serveConn's worker finish before Close
	b.SetHandler(func(context.Context, transport.NodeID, []byte) ([]byte, error) {
		<-release
		return []byte("late"), nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(ctx, 2, []byte("ping"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the handler
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Call did not return after cancel")
	}
	// The connection must still be usable: the late response is discarded by
	// the demux reader, not misdelivered to the next request.
	releaseHandler()
	b.SetHandler(func(_ context.Context, _ transport.NodeID, p []byte) ([]byte, error) { return p, nil })
	resp, err := a.Call(context.Background(), 2, []byte("after"))
	if err != nil {
		t.Fatalf("Call after cancel: %v", err)
	}
	if string(resp) != "after" {
		t.Fatalf("resp = %q, late response misdelivered", resp)
	}
}

// TestContextDeadlineMidRPC verifies deadline expiry surfaces as
// DeadlineExceeded on all three verbs.
func TestContextDeadlineMidRPC(t *testing.T) {
	a, b := pairUp(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	b.SetHandler(func(context.Context, transport.NodeID, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := a.Call(ctx, 2, []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Call took %v to honor a 50ms deadline", elapsed)
	}
	// Pre-expired context: rejected before touching the wire.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := a.ReadRegion(expired, 2, 1, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("read err = %v, want context.Canceled", err)
	}
	if err := a.WriteRegion(expired, 2, 1, 0, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("write err = %v, want context.Canceled", err)
	}
}

// TestSequentialOrdering checks the contract's ordering guarantee: when one
// operation completes before the next is issued, the peer observes them in
// that order.
func TestSequentialOrdering(t *testing.T) {
	a, b := pairUp(t)
	var mu sync.Mutex
	var seen []string
	b.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		mu.Lock()
		seen = append(seen, string(payload))
		mu.Unlock()
		return nil, nil
	})
	if _, err := b.RegisterRegion(1, 8); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := a.Call(ctx, 2, []byte(fmt.Sprintf("%02d", i))); err != nil {
			t.Fatal(err)
		}
		// One-sided writes to the same bytes, issued sequentially: the last
		// one must win.
		if err := a.WriteRegion(ctx, 2, 1, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.ReadRegion(ctx, 2, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 19 {
		t.Fatalf("final region byte = %d, want 19 (sequential writes reordered)", got[0])
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seen {
		if want := fmt.Sprintf("%02d", i); s != want {
			t.Fatalf("call %d delivered as %q, want %q", i, s, want)
		}
	}
}

// TestCallConcurrencyIsCapped: with twice as many concurrent callers as the
// endpoint has call workers, the handlers fill every worker and never more.
// Each handler holds its worker until the cap is reached (or a second has
// passed), so the test sees the cap itself, not a schedule that happened to
// stay below it.
func TestCallConcurrencyIsCapped(t *testing.T) {
	a, b := pairUp(t)
	var inHandler, maxSeen atomic.Int64
	full := make(chan struct{})
	var fullOnce sync.Once
	b.SetHandler(func(context.Context, transport.NodeID, []byte) ([]byte, error) {
		n := inHandler.Add(1)
		defer inHandler.Add(-1)
		for prev := maxSeen.Load(); n > prev; prev = maxSeen.Load() {
			if maxSeen.CompareAndSwap(prev, n) {
				break
			}
		}
		if n == callConcurrency {
			fullOnce.Do(func() { close(full) })
		}
		select {
		case <-full:
		case <-time.After(time.Second):
		}
		return nil, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 2*callConcurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Call(context.Background(), 2, []byte("x")); err != nil {
				t.Errorf("Call: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := maxSeen.Load(); got != callConcurrency {
		t.Fatalf("at most %d handlers ran at once with %d callers, want exactly %d", got, 2*callConcurrency, callConcurrency)
	}
}

// TestSendSideFrameValidation checks oversized payloads are rejected locally
// with ErrFrameTooLarge before a byte hits the wire, on every path.
func TestSendSideFrameValidation(t *testing.T) {
	a, b := pairUp(t)
	big := make([]byte, maxPayload+1)
	ctx := context.Background()
	if err := a.WriteRegion(ctx, 2, 1, 0, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteRegion err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := a.Call(ctx, 2, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Call err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := a.ReadRegion(ctx, 2, 1, 0, maxPayload+1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadRegion err = %v, want ErrFrameTooLarge", err)
	}
	if !errors.Is(ErrFrameTooLarge, transport.ErrFrameTooLarge) {
		t.Fatal("tcpnet.ErrFrameTooLarge must alias the transport sentinel")
	}
	// The peer's connection must not have been poisoned: nothing was sent.
	if _, err := b.RegisterRegion(1, 8); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteRegion(ctx, 2, 1, 0, []byte("ok")); err != nil {
		t.Fatalf("small write after rejected big write: %v", err)
	}
	// writeRequest and writeResponse refuse directly too.
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeRequest(w, opWrite, 1, 1, 1, 0, 0, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writeRequest err = %v, want ErrFrameTooLarge", err)
	}
	if err := writeResponse(w, 1, statusOK, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writeResponse err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes reached the wire despite validation", buf.Len())
	}
}

// TestCloseDuringInflightRPC pins down the Close/conn race: a round trip in
// flight when the local endpoint closes must surface ErrClosed, not
// ErrUnreachable.
func TestCloseDuringInflightRPC(t *testing.T) {
	a, b := pairUp(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	b.SetHandler(func(context.Context, transport.NodeID, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), 2, []byte("x"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request get on the wire
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("in-flight RPC err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight RPC did not fail after Close")
	}
}

// TestReconnectAfterBrokenConn verifies a broken pooled connection is
// redialled transparently instead of failing the caller.
func TestReconnectAfterBrokenConn(t *testing.T) {
	a, b := pairUp(t)
	if _, err := b.RegisterRegion(1, 64); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.WriteRegion(ctx, 2, 1, 0, []byte("one")); err != nil {
		t.Fatal(err)
	}
	// Sever every pooled lane to the peer underneath the endpoint.
	a.mu.Lock()
	var severed int
	for key, cc := range a.conns {
		if key.to == 2 {
			_ = cc.w.conn.Close()
			severed++
		}
	}
	a.mu.Unlock()
	if severed == 0 {
		t.Fatal("no pooled connection after first op")
	}
	if err := a.WriteRegion(ctx, 2, 1, 0, []byte("two")); err != nil {
		t.Fatalf("write after broken conn: %v (want transparent reconnect)", err)
	}
	got, err := a.ReadRegion(ctx, 2, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("got %q after reconnect", got)
	}
}

// TestPipelinedCallsMakeProgressConcurrently proves the transport really
// multiplexes: two calls issued together where the first blocks until the
// second completes can only both finish if they share the connection
// concurrently (under the seed's stop-and-wait transport this deadlocks).
func TestPipelinedCallsMakeProgressConcurrently(t *testing.T) {
	a, b := pairUp(t)
	second := make(chan struct{})
	b.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		switch string(payload) {
		case "first":
			select {
			case <-second:
			case <-time.After(5 * time.Second):
				return nil, errors.New("second call never arrived: transport is serialized")
			}
		case "second":
			close(second)
		}
		return payload, nil
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = a.Call(ctx, 2, []byte("first")) }()
	time.Sleep(20 * time.Millisecond) // ensure "first" is in flight first
	go func() { defer wg.Done(); _, errs[1] = a.Call(ctx, 2, []byte("second")) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestBufferPoolClasses exercises the size-classed frame pool directly.
func TestBufferPoolClasses(t *testing.T) {
	for _, n := range []int{0, 1, 100, minPoolBuf, minPoolBuf + 1, 64 << 10, maxPoolBuf, maxPoolBuf + 1} {
		b := getBuf(n)
		if len(b) != n {
			t.Fatalf("getBuf(%d) returned len %d", n, len(b))
		}
		if n > 0 && n <= maxPoolBuf {
			if c := cap(b); c < minPoolBuf || c&(c-1) != 0 {
				t.Fatalf("getBuf(%d) capacity %d is not a pool class size", n, c)
			}
		}
		putBuf(b)
	}
	// A recycled buffer must come back with the requested length and full
	// class capacity.
	b := getBuf(minPoolBuf)
	putBuf(b)
	b2 := getBuf(10)
	if len(b2) != 10 {
		t.Fatalf("recycled buffer len = %d, want 10", len(b2))
	}
}

// budgetConn is a fake net.Conn whose write side accepts exactly budget
// bytes and then fails, standing in for a kernel that died mid-stream.
type budgetConn struct {
	budget int
	wrote  int
}

func (c *budgetConn) Write(p []byte) (int, error) {
	if c.wrote+len(p) > c.budget {
		n := c.budget - c.wrote
		if n < 0 {
			n = 0
		}
		c.wrote += n
		return n, errors.New("budget exhausted")
	}
	c.wrote += len(p)
	return len(p), nil
}

func (c *budgetConn) Read([]byte) (int, error)         { return 0, errors.New("not readable") }
func (c *budgetConn) Close() error                     { return nil }
func (c *budgetConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *budgetConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *budgetConn) SetDeadline(time.Time) error      { return nil }
func (c *budgetConn) SetReadDeadline(time.Time) error  { return nil }
func (c *budgetConn) SetWriteDeadline(time.Time) error { return nil }

// TestRetryExcludesPartiallyFlushedFrames pins the at-most-once guarantee
// against a partial vectored write: when the kernel accepts all of frame A
// plus a prefix of frame B before the connection dies, the failure must fail
// A as non-retryable (it may have executed on the peer) while B — whose
// bytes never fully left the host — stays retryable.
func TestRetryExcludesPartiallyFlushedFrames(t *testing.T) {
	e, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Frame A is 45 bytes (37-byte header + 8-byte payload); a 64-byte budget
	// accepts all of A plus 19 bytes of B's header, then dies mid-writev.
	const budget = 64
	cc := &clientConn{w: newFrameWriter(&budgetConn{budget: budget}), pending: map[uint64]pendingOp{}}
	idA, chA, _ := cc.register(nil)
	idB, chB, _ := cc.register(nil)
	if err := e.send(cc, opWrite, idA, 1, 0, 0, make([]byte, 8), nil); err != nil {
		t.Fatalf("send A: %v", err)
	}
	if err := e.send(cc, opWrite, idB, 1, 0, 0, make([]byte, 10), nil); err != nil {
		t.Fatalf("send B: %v", err)
	}
	if err := cc.w.flush(); err == nil {
		t.Fatal("flush succeeded against an exhausted budget")
	}
	if got := cc.w.written; got != budget {
		t.Fatalf("kernel accepted %d bytes, want partial flush of %d", got, budget)
	}
	if err := e.send(cc, opWrite, 99, 1, 0, 0, nil, nil); err == nil {
		t.Fatal("a writer whose flush failed accepted another frame")
	}
	e.failConn(laneKey{to: 2, lane: 0}, cc, errors.New("flush failed"))
	resA, resB := <-chA, <-chB
	if resA.err == nil || resA.retry {
		t.Fatalf("frame A was fully handed to the kernel; must not be retryable (err=%v retry=%v)", resA.err, resA.retry)
	}
	if resB.err == nil || !resB.retry {
		t.Fatalf("frame B never fully reached the kernel; must be retryable (err=%v retry=%v)", resB.err, resB.retry)
	}
}
