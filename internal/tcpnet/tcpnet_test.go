package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"godm/internal/transport"
)

// pairUp creates two endpoints on loopback that know each other.
func pairUp(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	a, err := Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen(2, "127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func TestOneSidedWriteRead(t *testing.T) {
	a, b := pairUp(t)
	buf, err := b.RegisterRegion(7, 8192)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := bytes.Repeat([]byte{0xEE}, 4096)
	if err := a.WriteRegion(ctx, 2, 7, 1024, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[1024:1024+4096], data) {
		t.Fatal("write did not land in registered buffer")
	}
	got, err := a.ReadRegion(ctx, 2, 7, 1024, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
}

func TestWriteWithoutHandlerIsOneSided(t *testing.T) {
	a, b := pairUp(t)
	if _, err := b.RegisterRegion(1, 64); err != nil {
		t.Fatal(err)
	}
	// No handler installed on b: one-sided ops must still work.
	if err := a.WriteRegion(context.Background(), 2, 1, 0, []byte("hi")); err != nil {
		t.Fatal(err)
	}
}

func TestCallRoundTrip(t *testing.T) {
	a, b := pairUp(t)
	b.SetHandler(func(_ context.Context, from transport.NodeID, payload []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("from=%d:%s", from, payload)), nil
	})
	resp, err := a.Call(context.Background(), 2, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "from=1:ping" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestCallNoHandler(t *testing.T) {
	a, _ := pairUp(t)
	if _, err := a.Call(context.Background(), 2, []byte("x")); !errors.Is(err, transport.ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestCallHandlerErrorPropagates(t *testing.T) {
	a, b := pairUp(t)
	b.SetHandler(func(context.Context, transport.NodeID, []byte) ([]byte, error) {
		return nil, errors.New("quota exceeded")
	})
	_, err := a.Call(context.Background(), 2, nil)
	if err == nil || !strings.Contains(err.Error(), "quota exceeded") {
		t.Fatalf("err = %v, want remote error text", err)
	}
}

func TestNoRegion(t *testing.T) {
	a, _ := pairUp(t)
	err := a.WriteRegion(context.Background(), 2, 99, 0, []byte("x"))
	if !errors.Is(err, transport.ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion", err)
	}
}

func TestOutOfBounds(t *testing.T) {
	a, b := pairUp(t)
	if _, err := b.RegisterRegion(1, 10); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.WriteRegion(ctx, 2, 1, 8, []byte("xyz")); !errors.Is(err, transport.ErrOutOfBounds) {
		t.Fatalf("err = %v, want ErrOutOfBounds", err)
	}
	if _, err := a.ReadRegion(ctx, 2, 1, 0, 11); !errors.Is(err, transport.ErrOutOfBounds) {
		t.Fatalf("read err = %v, want ErrOutOfBounds", err)
	}
}

func TestUnknownPeer(t *testing.T) {
	a, _ := pairUp(t)
	if err := a.WriteRegion(context.Background(), 42, 1, 0, nil); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestPeerDownUnreachable(t *testing.T) {
	a, b := pairUp(t)
	if _, err := b.RegisterRegion(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	err := a.WriteRegion(context.Background(), 2, 1, 0, []byte("x"))
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestClosedEndpointRejectsOps(t *testing.T) {
	a, _ := pairUp(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteRegion(context.Background(), 2, 1, 0, nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := a.RegisterRegion(5, 10); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("register err = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	a, _ := pairUp(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestDeregisterRegion(t *testing.T) {
	a, b := pairUp(t)
	if _, err := b.RegisterRegion(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.DeregisterRegion(1); err != nil {
		t.Fatal(err)
	}
	if err := b.DeregisterRegion(1); !errors.Is(err, transport.ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion", err)
	}
	if _, err := a.ReadRegion(context.Background(), 2, 1, 0, 1); !errors.Is(err, transport.ErrNoRegion) {
		t.Fatalf("read err = %v, want ErrNoRegion", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	a, _ := pairUp(t)
	if _, err := a.RegisterRegion(1, 0); err == nil {
		t.Fatal("expected error for size 0")
	}
	if _, err := a.RegisterRegion(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RegisterRegion(1, 10); err == nil {
		t.Fatal("expected error for duplicate region")
	}
}

func TestConcurrentCalls(t *testing.T) {
	a, b := pairUp(t)
	b.SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return payload, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := a.Call(context.Background(), 2, msg)
			if err != nil {
				t.Errorf("Call: %v", err)
				return
			}
			if !bytes.Equal(resp, msg) {
				t.Errorf("resp = %q, want %q", resp, msg)
			}
		}(i)
	}
	wg.Wait()
}

func TestLargeTransfer(t *testing.T) {
	a, b := pairUp(t)
	const size = 8 << 20
	if _, err := b.RegisterRegion(1, size); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, size)
	ctx := context.Background()
	if err := a.WriteRegion(ctx, 2, 1, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadRegion(ctx, 2, 1, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large transfer mismatch")
	}
}

func TestBidirectional(t *testing.T) {
	a, b := pairUp(t)
	if _, err := a.RegisterRegion(1, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterRegion(1, 16); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.WriteRegion(ctx, 2, 1, 0, []byte("a->b")); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteRegion(ctx, 1, 1, 0, []byte("b->a")); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadRegion(ctx, 1, 1, 0, 4) // self-read over a's own listener
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "b->a" {
		t.Fatalf("got %q", got)
	}
}

// TestSelfAddressedVerbsGoOverTheSocket: an endpoint with no peer entry for
// itself serves a verb addressed to its own ID like any other — it dials its
// own listener, the request is counted, and the handler gets the endpoint's
// context, not the caller's.
func TestSelfAddressedVerbsGoOverTheSocket(t *testing.T) {
	a, _ := pairUp(t)
	region, err := a.RegisterRegion(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	copy(region, "self")
	type callerKey struct{}
	a.SetHandler(func(ctx context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		if ctx.Value(callerKey{}) != nil {
			return nil, errors.New("the handler saw the caller's context")
		}
		return append([]byte(nil), payload...), nil
	})
	ctx := context.WithValue(context.Background(), callerKey{}, true)
	served := a.Metrics().Counter("requests_served")
	before := served.Value()
	dst := make([]byte, 4)
	if err := a.ReadRegionInto(ctx, 1, 1, 0, dst); err != nil || string(dst) != "self" {
		t.Fatalf("self ReadRegionInto = %q, %v", dst, err)
	}
	if got := served.Value() - before; got != 1 {
		t.Errorf("requests_served moved by %d for one self read, want 1", got)
	}
	resp, err := a.CallV(ctx, 1, [][]byte{[]byte("pi"), []byte("ng")})
	if err != nil || string(resp) != "ping" {
		t.Fatalf("self CallV = %q, %v", resp, err)
	}
	if got := served.Value() - before; got != 2 {
		t.Errorf("requests_served moved by %d for one self read and one self call, want 2", got)
	}
}

// TestFrameCodecRoundTripProperty checks the wire format against random
// inputs: whatever one endpoint writes, the other reads back bit-for-bit.
func TestFrameCodecRoundTripProperty(t *testing.T) {
	f := func(op byte, id uint64, from int64, region uint32, offset int64, n int32, payload []byte) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeRequest(w, op, id, transport.NodeID(from), transport.RegionID(region), offset, int(n), payload); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := readRequest(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return got.op == op &&
			got.id == id &&
			got.from == transport.NodeID(from) &&
			got.region == transport.RegionID(region) &&
			got.offset == offset &&
			got.n == int(n) &&
			bytes.Equal(got.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseCodecRoundTripProperty(t *testing.T) {
	f := func(id uint64, status byte, payload []byte) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeResponse(w, id, status, payload); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		gotID, gotStatus, gotPayload, err := readResponse(bufio.NewReader(&buf))
		return err == nil && gotID == id && gotStatus == status && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft a request header claiming a payload beyond maxPayload.
	hdr := make([]byte, reqHeaderSize)
	hdr[0] = opCall
	binary.BigEndian.PutUint32(hdr[33:37], maxPayload+1)
	buf.Write(hdr)
	if _, err := readRequest(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized request accepted")
	}
	buf.Reset()
	resp := make([]byte, respHeaderSize)
	binary.BigEndian.PutUint32(resp[9:13], maxPayload+1)
	buf.Write(resp)
	if _, _, _, err := readResponse(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized response accepted")
	}
}
