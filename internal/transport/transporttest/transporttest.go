// Package transporttest is the shared conformance suite for
// transport.Endpoint implementations. Both fabrics — the discrete-event
// simulated RDMA network and the real TCP transport — run the same table, so
// the verbs contract (sentinel errors, reliable-connected ordering, frame
// limits, close and cancellation semantics) cannot drift between them: a
// behaviour change that only one fabric exhibits fails here before any
// higher layer trips over it.
package transporttest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"godm/internal/cluster"
	"godm/internal/trace"
	"godm/internal/transport"
)

// Fabric abstracts one network under test. Each conformance case asks for a
// fresh fabric, so implementations must not share state between calls.
type Fabric interface {
	// Endpoints attaches n endpoints with IDs 1..n to one shared network.
	Endpoints(t *testing.T, n int) []transport.Endpoint
	// Run executes body with a context suitable for issuing verbs (the
	// simulated fabric needs a discrete-event process carried in it) and
	// drives the network until body returns.
	Run(t *testing.T, body func(ctx context.Context))
}

// Case is one conformance check, run against a fresh fabric.
type Case struct {
	Name string
	Run  func(t *testing.T, f Fabric)
}

// Cases is the shared conformance table.
func Cases() []Case {
	return []Case{
		{"WriteReadRoundTrip", testWriteReadRoundTrip},
		{"RCOrdering", testRCOrdering},
		{"CallEchoAndPeerIdentity", testCallEcho},
		{"FrameTooLarge", testFrameTooLarge},
		{"SentinelErrors", testSentinels},
		{"LocalCloseRace", testLocalClose},
		{"RemoteCloseUnreachable", testRemoteClose},
		{"ContextCancellation", testContextCancellation},
		{"TraceContextPropagation", testTracePropagation},
		{"VectoredWriteEquivalence", testVectoredWriteEquivalence},
		{"ScatterReadInto", testScatterReadInto},
		{"GatherCallEquivalence", testGatherCallEquivalence},
		{"AnswerViewOfPayload", testAnswerViewOfPayload},
		{"MapDeltaOpFidelity", testMapDeltaOpFidelity},
		{"RedirectOpFidelity", testRedirectOpFidelity},
		{"ShardPutOpFidelity", testShardPutOpFidelity},
	}
}

// RunConformance runs every case as a subtest, building a fresh fabric per
// case via newFabric.
func RunConformance(t *testing.T, newFabric func(t *testing.T) Fabric) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			c.Run(t, newFabric(t))
		})
	}
}

const region transport.RegionID = 7

func testWriteReadRoundTrip(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	if _, err := eps[1].RegisterRegion(region, 4096); err != nil {
		t.Fatal(err)
	}
	f.Run(t, func(ctx context.Context) {
		want := bytes.Repeat([]byte{0x5A}, 1024)
		if err := eps[0].WriteRegion(ctx, 2, region, 128, want); err != nil {
			t.Fatalf("WriteRegion: %v", err)
		}
		got, err := eps[0].ReadRegion(ctx, 2, region, 128, len(want))
		if err != nil {
			t.Fatalf("ReadRegion: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("read-back mismatch")
		}
		// Bytes outside the written window stay zero.
		head, err := eps[0].ReadRegion(ctx, 2, region, 0, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range head {
			if b != 0 {
				t.Error("write spilled outside its window")
				break
			}
		}
	})
}

// testRCOrdering checks the reliable-connected contract: operations issued
// in order on one connection are applied in order — the last serial write to
// an offset wins, and a read issued after a write observes it.
func testRCOrdering(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	if _, err := eps[1].RegisterRegion(region, 4096); err != nil {
		t.Fatal(err)
	}
	f.Run(t, func(ctx context.Context) {
		for round := 0; round < 8; round++ {
			payload := bytes.Repeat([]byte{byte(round + 1)}, 512)
			if err := eps[0].WriteRegion(ctx, 2, region, 0, payload); err != nil {
				t.Fatalf("round %d write: %v", round, err)
			}
			got, err := eps[0].ReadRegion(ctx, 2, region, 0, 512)
			if err != nil {
				t.Fatalf("round %d read: %v", round, err)
			}
			if got[0] != byte(round+1) || got[511] != byte(round+1) {
				t.Fatalf("round %d: read observed stale bytes %d/%d (write-read reordered)",
					round, got[0], got[511])
			}
		}
	})
}

func testCallEcho(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	var gotFrom transport.NodeID
	eps[1].SetHandler(func(_ context.Context, from transport.NodeID, payload []byte) ([]byte, error) {
		gotFrom = from
		return append([]byte("echo:"), payload...), nil
	})
	f.Run(t, func(ctx context.Context) {
		resp, err := eps[0].Call(ctx, 2, []byte("ping"))
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		if string(resp) != "echo:ping" {
			t.Errorf("resp = %q", resp)
		}
		if gotFrom != 1 {
			t.Errorf("handler saw caller %d, want 1", gotFrom)
		}
	})
}

func testFrameTooLarge(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	if _, err := eps[1].RegisterRegion(region, 4096); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, transport.MaxFrameSize+1)
	f.Run(t, func(ctx context.Context) {
		if err := eps[0].WriteRegion(ctx, 2, region, 0, huge); !errors.Is(err, transport.ErrFrameTooLarge) {
			t.Errorf("oversized write: %v, want ErrFrameTooLarge", err)
		}
		if _, err := eps[0].ReadRegion(ctx, 2, region, 0, transport.MaxFrameSize+1); !errors.Is(err, transport.ErrFrameTooLarge) {
			t.Errorf("oversized read: %v, want ErrFrameTooLarge", err)
		}
		if _, err := eps[0].Call(ctx, 2, huge); !errors.Is(err, transport.ErrFrameTooLarge) {
			t.Errorf("oversized call: %v, want ErrFrameTooLarge", err)
		}
		// The limit itself must not leak the payload onto the fabric: the
		// region is untouched after the rejected write.
		got, err := eps[0].ReadRegion(ctx, 2, region, 0, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != 0 {
				t.Error("rejected write modified the region")
				break
			}
		}
	})
}

func testSentinels(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	if _, err := eps[1].RegisterRegion(region, 1024); err != nil {
		t.Fatal(err)
	}
	f.Run(t, func(ctx context.Context) {
		if err := eps[0].WriteRegion(ctx, 2, 99, 0, []byte("x")); !errors.Is(err, transport.ErrNoRegion) {
			t.Errorf("unknown region: %v, want ErrNoRegion", err)
		}
		if err := eps[0].WriteRegion(ctx, 2, region, 1020, []byte("xxxxx")); !errors.Is(err, transport.ErrOutOfBounds) {
			t.Errorf("out-of-bounds write: %v, want ErrOutOfBounds", err)
		}
		if _, err := eps[0].ReadRegion(ctx, 2, region, -1, 4); !errors.Is(err, transport.ErrOutOfBounds) {
			t.Errorf("negative-offset read: %v, want ErrOutOfBounds", err)
		}
		if _, err := eps[0].Call(ctx, 2, []byte("nobody home")); !errors.Is(err, transport.ErrNoHandler) {
			t.Errorf("call without handler: %v, want ErrNoHandler", err)
		}
		if err := eps[0].WriteRegion(ctx, 42, region, 0, []byte("x")); !errors.Is(err, transport.ErrUnreachable) {
			t.Errorf("unknown node: %v, want ErrUnreachable", err)
		}
	})
}

// testLocalClose checks the close contract from the closing side: once Close
// returns, every subsequent operation fails with ErrClosed — no operation
// half-succeeds after close.
func testLocalClose(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	if _, err := eps[1].RegisterRegion(region, 1024); err != nil {
		t.Fatal(err)
	}
	f.Run(t, func(ctx context.Context) {
		if err := eps[0].WriteRegion(ctx, 2, region, 0, []byte("pre")); err != nil {
			t.Fatalf("write before close: %v", err)
		}
		if err := eps[0].Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := eps[0].WriteRegion(ctx, 2, region, 0, []byte("post")); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("write after close: %v, want ErrClosed", err)
		}
		if _, err := eps[0].ReadRegion(ctx, 2, region, 0, 3); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("read after close: %v, want ErrClosed", err)
		}
		if _, err := eps[0].Call(ctx, 2, []byte("x")); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("call after close: %v, want ErrClosed", err)
		}
		// Registration on a closed endpoint also fails with ErrClosed.
		if _, err := eps[0].RegisterRegion(99, 64); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("register after close: %v, want ErrClosed", err)
		}
	})
}

// testRemoteClose checks the close contract from the other side: a peer that
// closed is unreachable, not "closed" — the caller's endpoint is still fine.
func testRemoteClose(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 3)
	if _, err := eps[1].RegisterRegion(region, 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[2].RegisterRegion(region, 1024); err != nil {
		t.Fatal(err)
	}
	f.Run(t, func(ctx context.Context) {
		if err := eps[1].Close(); err != nil {
			t.Fatalf("peer Close: %v", err)
		}
		if err := eps[0].WriteRegion(ctx, 2, region, 0, []byte("x")); !errors.Is(err, transport.ErrUnreachable) {
			t.Errorf("write to closed peer: %v, want ErrUnreachable", err)
		}
		// Other peers are unaffected.
		if err := eps[0].WriteRegion(ctx, 3, region, 0, []byte("x")); err != nil {
			t.Errorf("write to healthy peer after neighbour closed: %v", err)
		}
	})
}

func testContextCancellation(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	if _, err := eps[1].RegisterRegion(region, 1024); err != nil {
		t.Fatal(err)
	}
	f.Run(t, func(ctx context.Context) {
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if err := eps[0].WriteRegion(cancelled, 2, region, 0, []byte("x")); !errors.Is(err, context.Canceled) {
			t.Errorf("write with cancelled ctx: %v, want context.Canceled", err)
		}
		if _, err := eps[0].ReadRegion(cancelled, 2, region, 0, 4); !errors.Is(err, context.Canceled) {
			t.Errorf("read with cancelled ctx: %v, want context.Canceled", err)
		}
		if _, err := eps[0].Call(cancelled, 2, []byte("x")); !errors.Is(err, context.Canceled) {
			t.Errorf("call with cancelled ctx: %v, want context.Canceled", err)
		}
		// The endpoint survives: a fresh context works.
		if err := eps[0].WriteRegion(ctx, 2, region, 0, []byte("ok")); err != nil {
			t.Errorf("write after cancellation: %v", err)
		}
	})
}

// testTracePropagation checks that the trace middleware carries the caller's
// trace identity across the wire on both fabrics: the remote handler runs
// under the caller's trace, sees the bare payload (the envelope never leaks
// to application code), and the client- and server-side spans land in the
// same reassembled trace.
func testTracePropagation(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	tr := trace.New()
	mw := trace.Middleware(tr)
	client := mw(eps[0])
	server := mw(eps[1])

	var gotPayload string
	var gotTrace trace.TraceID
	var handlerSawContext bool
	server.SetHandler(func(ctx context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		gotPayload = string(payload)
		if sc, ok := trace.SpanContextFrom(ctx); ok {
			handlerSawContext = true
			gotTrace = sc.Trace
		}
		return append([]byte(nil), payload...), nil // the payload is only lent
	})
	f.Run(t, func(ctx context.Context) {
		ctx = trace.WithTracer(ctx, tr)
		ctx, root := trace.Start(ctx, "conformance.op")
		resp, err := client.Call(ctx, 2, []byte("ping"))
		root.End()
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		if string(resp) != "ping" {
			t.Errorf("resp = %q, want the bare payload echoed", resp)
		}
		if gotPayload != "ping" {
			t.Errorf("handler payload = %q: the wire envelope leaked to application code", gotPayload)
		}
		if !handlerSawContext {
			t.Fatal("handler context carried no span context")
		}
		if gotTrace != root.TraceID() {
			t.Errorf("handler ran under trace %d, caller's trace is %d", gotTrace, root.TraceID())
		}
		var names []string
		for _, s := range tr.Spans(root.TraceID()) {
			names = append(names, s.Name)
		}
		joined := strings.Join(names, " ")
		for _, want := range []string{"conformance.op", "net.call", "net.serve"} {
			if !strings.Contains(joined, want) {
				t.Errorf("trace %d spans = %v, missing %s", root.TraceID(), names, want)
			}
		}
	})
}

// testVectoredWriteEquivalence checks the gather-write contract: a
// WriteRegionV of an iovec list must land on the target region byte-for-byte
// identically to a plain WriteRegion of the pre-assembled concatenation —
// whether the fabric implements transport.VectoredWriter natively or the
// package helper falls back to a pooled gather. Oversized iovec totals get
// the same ErrFrameTooLarge as oversized flat writes.
func testVectoredWriteEquivalence(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	if _, err := eps[1].RegisterRegion(region, 64<<10); err != nil {
		t.Fatal(err)
	}
	// Slices of uneven sizes, including an empty one mid-list.
	parts := [][]byte{
		bytes.Repeat([]byte{0x11}, 7),
		bytes.Repeat([]byte{0x22}, 4096),
		{},
		bytes.Repeat([]byte{0x33}, 513),
		{0x44},
	}
	var flat []byte
	for _, p := range parts {
		flat = append(flat, p...)
	}
	f.Run(t, func(ctx context.Context) {
		if err := transport.WriteRegionV(ctx, eps[0], 2, region, 100, parts); err != nil {
			t.Fatalf("WriteRegionV: %v", err)
		}
		if err := eps[0].WriteRegion(ctx, 2, region, 20000, flat); err != nil {
			t.Fatalf("WriteRegion: %v", err)
		}
		vGot, err := eps[0].ReadRegion(ctx, 2, region, 100, len(flat))
		if err != nil {
			t.Fatal(err)
		}
		fGot, err := eps[0].ReadRegion(ctx, 2, region, 20000, len(flat))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vGot, flat) {
			t.Error("vectored write landed different bytes than the source iovec")
		}
		if !bytes.Equal(vGot, fGot) {
			t.Error("vectored and flat writes of the same bytes diverge on the region")
		}
		huge := [][]byte{make([]byte, transport.MaxFrameSize), {0x1}}
		if err := transport.WriteRegionV(ctx, eps[0], 2, region, 0, huge); !errors.Is(err, transport.ErrFrameTooLarge) {
			t.Errorf("oversized vectored write: %v, want ErrFrameTooLarge", err)
		}
	})
}

// testScatterReadInto checks the scatter-read contract: ReadRegionInto fills
// exactly len(dst) bytes of the caller's buffer with the same bytes a plain
// ReadRegion returns, errors leave sentinel semantics intact, and a
// destination overlapping the region bounds fails with ErrOutOfBounds.
func testScatterReadInto(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	if _, err := eps[1].RegisterRegion(region, 4096); err != nil {
		t.Fatal(err)
	}
	f.Run(t, func(ctx context.Context) {
		want := make([]byte, 1500)
		for i := range want {
			want[i] = byte(i * 7)
		}
		if err := eps[0].WriteRegion(ctx, 2, region, 64, want); err != nil {
			t.Fatal(err)
		}
		// Oversize dst with sentinel bytes: only the first len bytes may move.
		dst := bytes.Repeat([]byte{0xEE}, len(want)+8)
		if err := transport.ReadRegionInto(ctx, eps[0], 2, region, 64, dst[:len(want)]); err != nil {
			t.Fatalf("ReadRegionInto: %v", err)
		}
		if !bytes.Equal(dst[:len(want)], want) {
			t.Error("scatter read filled dst with different bytes than were written")
		}
		for _, b := range dst[len(want):] {
			if b != 0xEE {
				t.Error("scatter read wrote past len(dst)")
				break
			}
		}
		if err := transport.ReadRegionInto(ctx, eps[0], 2, region, 4000, make([]byte, 200)); !errors.Is(err, transport.ErrOutOfBounds) {
			t.Errorf("out-of-bounds scatter read: %v, want ErrOutOfBounds", err)
		}
		if err := transport.ReadRegionInto(ctx, eps[0], 2, 99, 0, make([]byte, 8)); !errors.Is(err, transport.ErrNoRegion) {
			t.Errorf("unknown-region scatter read: %v, want ErrNoRegion", err)
		}
	})
}

// testGatherCallEquivalence checks the gather-call contract through the
// package helper, so it holds for a Verbs with the transport.VectoredCaller
// capability and for one without (the helper's pooled-gather fallback): the
// handler of a CallV receives, as one contiguous payload, byte for byte what
// the handler of a plain Call of the concatenation receives. The handler
// copies what it keeps — its payload is only lent to it — and answers with
// bytes it gives up (AnswerViewOfPayload covers an answer that is a view of
// the payload). Oversized totals get the ErrFrameTooLarge of oversized calls.
func testGatherCallEquivalence(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	var seen [][]byte
	eps[1].SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		seen = append(seen, append([]byte(nil), payload...))
		return binary.BigEndian.AppendUint32(nil, uint32(len(payload))), nil
	})
	// A small header, a bulk body the size of a remote put's, an empty slice
	// mid-list and an odd tail.
	body := make([]byte, 64<<10)
	for i := range body {
		body[i] = byte(i*31 + i>>8)
	}
	parts := [][]byte{[]byte("header:32-bytes-of-control-data!"), body, {}, {0x44, 0x55, 0x66}}
	var flat []byte
	for _, p := range parts {
		flat = append(flat, p...)
	}
	f.Run(t, func(ctx context.Context) {
		for i := 0; i < 3; i++ { // more than once: a recycled frame buffer must not leak into the next call
			vResp, err := transport.CallV(ctx, eps[0], 2, parts)
			if err != nil {
				t.Fatalf("CallV: %v", err)
			}
			fResp, err := eps[0].Call(ctx, 2, flat)
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			if want := binary.BigEndian.AppendUint32(nil, uint32(len(flat))); !bytes.Equal(vResp, want) || !bytes.Equal(fResp, want) {
				t.Fatalf("answers %x / %x, want %x", vResp, fResp, want)
			}
		}
		for i, got := range seen {
			if !bytes.Equal(got, flat) {
				t.Errorf("delivery %d: the handler saw %d bytes that differ from the %d sent", i, len(got), len(flat))
			}
		}
		if len(seen) != 6 {
			t.Errorf("handler ran %d times for 6 calls", len(seen))
		}
		huge := [][]byte{make([]byte, transport.MaxFrameSize), {0x1}}
		if _, err := transport.CallV(ctx, eps[0], 2, huge); !errors.Is(err, transport.ErrFrameTooLarge) {
			t.Errorf("oversized gather call: %v, want ErrFrameTooLarge", err)
		}
	})
}

// testAnswerViewOfPayload checks the answer half of the ownership contract
// for a handler whose answer is a view of its payload (its first half): the
// caller gets those bytes intact, and keeps them, whether the call went out
// plain, as a native gather or through the package helper's gather fallback.
// Every answer is held across the calls after it, so a fabric or helper that
// released the payload under an answer still pointing into it shows the next
// call's bytes there — or, built with -tags bufdebug, poison.
func testAnswerViewOfPayload(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	eps[1].SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		return payload[:len(payload)/2], nil
	})
	message := func(seed int) []byte {
		b := make([]byte, 12000) // a 16 KiB pooled buffer once gathered or received
		for i := range b {
			b[i] = byte(seed*37 + i*7 + i>>9)
		}
		return b
	}
	f.Run(t, func(ctx context.Context) {
		var held, want [][]byte
		for round := 0; round < 3; round++ {
			plain := message(2 * round)
			resp, err := eps[0].Call(ctx, 2, plain)
			if err != nil {
				t.Fatalf("round %d Call: %v", round, err)
			}
			held, want = append(held, resp), append(want, plain[:len(plain)/2])
			gathered := message(2*round + 1)
			resp, err = transport.CallV(ctx, eps[0], 2, [][]byte{gathered[:100], gathered[100:]})
			if err != nil {
				t.Fatalf("round %d CallV: %v", round, err)
			}
			held, want = append(held, resp), append(want, gathered[:len(gathered)/2])
			for i := range held {
				if !bytes.Equal(held[i], want[i]) {
					t.Fatalf("after round %d: answer %d (%d bytes) no longer reads as the first half of its payload", round, i, len(held[i]))
				}
			}
		}
	})
}

// testMapDeltaOpFidelity checks the epoch-versioned map-sync payloads of the
// cluster control plane survive a Call round trip bit-exactly: the server
// decodes the client's SyncRequest and answers with a SyncResponse carrying
// both a delta run (node changes with group incarnations, a leader set, a
// departure) and, on a second exchange, a full snapshot. Any fabric- or
// middleware-introduced corruption of these frames would desynchronise every
// directory in a cluster, so both fabrics prove fidelity here.
func testMapDeltaOpFidelity(t *testing.T, f Fabric) {
	eps := f.Endpoints(t, 2)
	wantDeltas := cluster.SyncResponse{
		Origin: 2,
		Deltas: []cluster.Delta{
			{
				Epoch:  7,
				Groups: 2,
				Changes: []cluster.Change{
					{State: cluster.NodeState{ID: 3, FreeBytes: 1 << 30, Alive: true, Group: 1, Gver: 4}},
					{State: cluster.NodeState{ID: 9, Alive: false, Group: 0, Gver: 1}},
					{State: cluster.NodeState{ID: 5}, Left: true},
				},
			},
			{
				Epoch:          8,
				Groups:         2,
				Leaders:        []cluster.GroupLeader{{Group: 0, Leader: 1}, {Group: 1, Leader: 3}},
				LeadersChanged: true,
				Root:           1,
				RootOK:         true,
			},
		},
	}
	snap := cluster.MapSnapshot{
		Epoch:   9,
		Groups:  1,
		Nodes:   []cluster.NodeState{{ID: 1, FreeBytes: 42, Alive: true, Gver: 2}},
		Leaders: []cluster.GroupLeader{{Group: 0, Leader: 1}},
		Root:    1,
		RootOK:  true,
	}
	wantSnap := cluster.SyncResponse{Origin: 2, Snapshot: &snap}
	var gotReq cluster.SyncRequest
	eps[1].SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		req, rest, err := cluster.DecodeSyncRequest(payload)
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("decode request: %v (rest %d)", err, len(rest))
		}
		gotReq = req
		if req.Epoch == 0 {
			return cluster.AppendSyncResponse(nil, wantSnap), nil
		}
		return cluster.AppendSyncResponse(nil, wantDeltas), nil
	})
	f.Run(t, func(ctx context.Context) {
		resp, err := eps[0].Call(ctx, 2, cluster.AppendSyncRequest(nil, cluster.SyncRequest{Origin: 2, Epoch: 6}))
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		got, rest, err := cluster.DecodeSyncResponse(resp)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode response: %v (rest %d)", err, len(rest))
		}
		if gotReq != (cluster.SyncRequest{Origin: 2, Epoch: 6}) {
			t.Errorf("server saw request %+v", gotReq)
		}
		if !reflect.DeepEqual(got, wantDeltas) {
			t.Errorf("delta response mutated in flight:\n got %+v\nwant %+v", got, wantDeltas)
		}
		resp, err = eps[0].Call(ctx, 2, cluster.AppendSyncRequest(nil, cluster.SyncRequest{Origin: 2}))
		if err != nil {
			t.Fatalf("snapshot Call: %v", err)
		}
		got, rest, err = cluster.DecodeSyncResponse(resp)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode snapshot response: %v (rest %d)", err, len(rest))
		}
		if !reflect.DeepEqual(got, wantSnap) {
			t.Errorf("snapshot response mutated in flight:\n got %+v\nwant %+v", got, wantSnap)
		}
	})
}

// testRedirectOpFidelity checks a locate/redirect exchange — the status-plus
// [node][offset] frame a draining host answers stale readers with — crosses
// both fabrics intact, including the maximum offset and a zero offset, and
// that an in-place answer stays a single status byte.
func testRedirectOpFidelity(t *testing.T, f Fabric) {
	const (
		stOK       = 0
		stRedirect = 3
	)
	eps := f.Endpoints(t, 2)
	eps[1].SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		if len(payload) != 17 {
			return nil, fmt.Errorf("locate frame = %d bytes, want 17", len(payload))
		}
		key := binary.BigEndian.Uint64(payload[1:9])
		offset := int64(binary.BigEndian.Uint64(payload[9:17]))
		if offset == 0 {
			return []byte{stOK}, nil
		}
		// Redirect to node key>>32 at the bit-inverted offset, exercising
		// high bytes in every field.
		b := []byte{stRedirect}
		b = binary.BigEndian.AppendUint64(b, key>>32)
		b = binary.BigEndian.AppendUint64(b, uint64(offset)^0x00FFFFFFFFFFFFFF)
		return b, nil
	})
	locate := func(key uint64, offset int64) []byte {
		b := []byte{10} // opLocate
		b = binary.BigEndian.AppendUint64(b, key)
		b = binary.BigEndian.AppendUint64(b, uint64(offset))
		return b
	}
	f.Run(t, func(ctx context.Context) {
		resp, err := eps[0].Call(ctx, 2, locate(0xAABBCCDD11223344, 0))
		if err != nil {
			t.Fatalf("in-place Call: %v", err)
		}
		if len(resp) != 1 || resp[0] != stOK {
			t.Errorf("in-place answer = %v, want single stOK byte", resp)
		}
		resp, err = eps[0].Call(ctx, 2, locate(0xAABBCCDD11223344, 0x0102030405060708))
		if err != nil {
			t.Fatalf("redirect Call: %v", err)
		}
		if len(resp) != 17 || resp[0] != stRedirect {
			t.Fatalf("redirect answer = %d bytes status %d", len(resp), resp[0])
		}
		if node := binary.BigEndian.Uint64(resp[1:9]); node != 0xAABBCCDD {
			t.Errorf("redirect node = %#x, want 0xAABBCCDD", node)
		}
		if off := binary.BigEndian.Uint64(resp[9:17]); off != 0x0102030405060708^0x00FFFFFFFFFFFFFF {
			t.Errorf("redirect offset = %#x mutated in flight", off)
		}
	})
}

// testShardPutOpFidelity checks the erasure-coding control frames cross both
// fabrics bit-exactly: a one-shard put that displaces a block — the 48-byte
// header ([op][owner u32][idx][k][m][N u32][R u32] + [key u64][class u32]
// [len u32] + [key u64][old offset u64]) with the shard's bytes gathered
// behind it — and the 13-byte shard-stat request with its 5-byte coordinate
// answer ([stOK][hosted][idx][k][m]). A corrupted idx or k would make a
// repair reconstruct the wrong shard, so every field is driven with high
// bits set.
func testShardPutOpFidelity(t *testing.T, f Fabric) {
	const (
		opPut       = 1
		opShardStat = 17
		stOK        = 0
	)
	shard := bytes.Repeat([]byte{0xE7, 0x18}, 512)
	eps := f.Endpoints(t, 2)
	eps[1].SetHandler(func(_ context.Context, _ transport.NodeID, payload []byte) ([]byte, error) {
		switch payload[0] {
		case opPut:
			if len(payload) != 48+len(shard) || !bytes.Equal(payload[48:], shard) {
				return nil, fmt.Errorf("shard put frame = %d bytes, want 48 + the %d-byte shard intact", len(payload), len(shard))
			}
			// Answer put-style, [stOK][offset u64], with the header folded
			// into the offset so the caller can tell every field arrived.
			sum := uint64(0)
			for _, b := range payload[:48] {
				sum = sum*131 + uint64(b)
			}
			return binary.BigEndian.AppendUint64([]byte{stOK}, sum), nil
		case opShardStat:
			if len(payload) != 13 {
				return nil, fmt.Errorf("shard stat frame = %d bytes, want 13", len(payload))
			}
			// Derive the coordinate answer from the request so corruption of
			// either frame is visible: idx = low key byte, k/m from the owner.
			owner := binary.BigEndian.Uint32(payload[9:13])
			return []byte{stOK, 1, payload[8], byte(owner >> 24), byte(owner)}, nil
		default:
			return nil, fmt.Errorf("unexpected op %d", payload[0])
		}
	})
	key := uint64(0xF00DFACE99887766)
	hdr := []byte{opPut}
	hdr = binary.BigEndian.AppendUint32(hdr, 0xFFEE0001) // owner
	hdr = append(hdr, 0x3F, 0x3E, 0x02)                  // idx, k, m
	hdr = binary.BigEndian.AppendUint32(hdr, 1)          // entries
	hdr = binary.BigEndian.AppendUint32(hdr, 1)          // releases
	hdr = binary.BigEndian.AppendUint64(hdr, key)
	hdr = binary.BigEndian.AppendUint32(hdr, 0x80000400) // class
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(shard)))
	hdr = binary.BigEndian.AppendUint64(hdr, key)
	hdr = binary.BigEndian.AppendUint64(hdr, 0xFEDCBA9876543210) // old offset
	want := uint64(0)
	for _, b := range hdr {
		want = want*131 + uint64(b)
	}
	f.Run(t, func(ctx context.Context) {
		resp, err := transport.CallV(ctx, eps[0], 2, [][]byte{hdr, shard})
		if err != nil {
			t.Fatalf("shard put Call: %v", err)
		}
		if len(resp) != 9 || resp[0] != stOK {
			t.Fatalf("shard put answer = %d bytes status %d", len(resp), resp[0])
		}
		if got := binary.BigEndian.Uint64(resp[1:9]); got != want {
			t.Errorf("header arrived as %#x, sent as %#x", got, want)
		}
		stat := []byte{opShardStat}
		stat = binary.BigEndian.AppendUint64(stat, key)
		stat = binary.BigEndian.AppendUint32(stat, 0xAA0000BB)
		resp, err = eps[0].Call(ctx, 2, stat)
		if err != nil {
			t.Fatalf("shard stat Call: %v", err)
		}
		if want := []byte{stOK, 1, 0x66, 0xAA, 0xBB}; !bytes.Equal(resp, want) {
			t.Errorf("shard stat answer = %v, want %v", resp, want)
		}
	})
}

// Describe renders the table for documentation/debugging.
func Describe() string {
	var b bytes.Buffer
	for _, c := range Cases() {
		fmt.Fprintf(&b, "%s\n", c.Name)
	}
	return b.String()
}
