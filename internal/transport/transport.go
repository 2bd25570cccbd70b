// Package transport defines the verbs-style interface every interconnect in
// this repository implements (§IV.G of the paper). The paper builds its data
// plane on one-sided RDMA READ/WRITE into pre-registered memory regions and
// its control plane on two-sided SEND/RECV over a reliable-connected queue
// pair (RC QP), which delivers messages at most once and in order.
//
// Two fabrics implement the interface: internal/simnet, a discrete-event
// simulated InfiniBand network used by all experiments, and internal/tcpnet,
// a real TCP implementation used by the multi-process daemon, which trades
// kernel bypass for portability while preserving the same semantics.
package transport

import (
	"context"
	"errors"

	"godm/internal/bufpool"
)

// NodeID names a node on the fabric.
type NodeID int

// RegionID names a registered memory region within one node.
type RegionID uint32

// Sentinel errors shared by all fabrics.
var (
	// ErrUnreachable is returned when the target node is down, closed, or
	// partitioned away.
	ErrUnreachable = errors.New("transport: node unreachable")
	// ErrNoRegion is returned for one-sided operations on unregistered
	// regions (the RDMA equivalent of a protection-domain violation).
	ErrNoRegion = errors.New("transport: region not registered")
	// ErrOutOfBounds is returned when an access exceeds the region.
	ErrOutOfBounds = errors.New("transport: access outside region")
	// ErrNoHandler is returned for control-plane calls to a node that has
	// not installed a handler.
	ErrNoHandler = errors.New("transport: no control-plane handler")
	// ErrClosed is returned for operations on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrFrameTooLarge is returned by fabrics with a bounded frame size when
	// a single operation's payload exceeds that bound. It is detected on the
	// send side, before anything reaches the wire, so the caller can split
	// the transfer into smaller operations.
	ErrFrameTooLarge = errors.New("transport: frame too large")
)

// Handler serves control-plane (two-sided) requests. Implementations must be
// safe for concurrent use.
//
// payload is lent to the handler: it is valid only until the handler returns
// (the TCP fabric draws it from the frame pool, the simulated fabric passes
// the caller's own slice), so a handler copies whatever it keeps.
//
// The answer is handed to the fabric with the return, and the handler never
// touches it again. The TCP fabric releases it to internal/bufpool after the
// flush that writes it; the simulated fabric hands it to the caller. So a
// handler answers with memory it gives up: fresh, drawn from bufpool, or a
// view of payload — such an answer reaches the caller intact and is released
// once, with the payload. A slice the handler keeps sharing read-only is a
// valid answer only if bufpool.Put drops it (capacity below bufpool.MinBuf).
//
// ctx is the request-scoped context. On the simulated fabric it is the
// caller's context (so it carries the calling des.Proc and any trace state);
// on the TCP fabric it is a server context that is cancelled when the
// endpoint closes. Tracing middleware augments it with the caller's span.
type Handler func(ctx context.Context, from NodeID, payload []byte) ([]byte, error)

// Verbs is the operation set a node can issue toward its peers.
//
// All three verbs honor their context: when ctx is cancelled or its deadline
// expires, the operation returns promptly with ctx.Err(), and any late
// response from the peer is discarded by the fabric. Many operations toward
// the same peer may be in flight at once (like outstanding work requests on
// an RC QP); ordering is guaranteed between operations where one completes
// before the next is issued, while concurrently issued operations may be
// executed by the peer in any order.
type Verbs interface {
	// WriteRegion performs a one-sided RDMA write: data lands in the target
	// region without involving the remote CPU.
	WriteRegion(ctx context.Context, to NodeID, region RegionID, offset int64, data []byte) error
	// ReadRegion performs a one-sided RDMA read of n bytes.
	ReadRegion(ctx context.Context, to NodeID, region RegionID, offset int64, n int) ([]byte, error)
	// Call performs a two-sided send/receive round trip: the payload is
	// delivered to the target's Handler and its response returned.
	//
	// payload is lent until Call returns, cancellation included. The answer
	// belongs to the caller, who may release it with bufpool.Put once done
	// with it (the TCP fabric lands it in a pooled buffer; releasing stays
	// optional). On a fabric that passes payload itself to the handler — the
	// simulated one — an answer may be a view of payload: a caller that
	// releases both releases only one (bufpool.Overlaps tells).
	Call(ctx context.Context, to NodeID, payload []byte) ([]byte, error)
}

// VectoredWriter is the gather-write capability: a one-sided write whose
// payload is a list of slices (an iovec) that land contiguously at offset, in
// order, as if they had been concatenated. Nothing in this module issues
// gather writes any more — a batch's payloads ride its put as a gather call
// (VectoredCaller) — and no fabric here implements the capability; it and the
// WriteRegionV helper stay for wrappers that forward it (the benchmark's
// timing endpoint), which the helper serves with a pooled gather copy.
//
// Buffer ownership: every slice remains owned by the caller and must stay
// unmodified until the call returns (the fabric may reference it until the
// frame reaches the wire, exactly as RDMA DMAs from registered memory).
type VectoredWriter interface {
	WriteRegionV(ctx context.Context, to NodeID, region RegionID, offset int64, bufs [][]byte) error
}

// ScatterReader is the scatter-read capability: a one-sided read whose
// payload lands directly in the caller's dst buffer — true one-sided-READ
// semantics with no intermediate allocation. len(dst) bytes are read.
//
// Buffer ownership: dst is lent to the fabric for the duration of the call.
// On a clean return (nil or error) the fabric has released it. If ctx is
// cancelled the fabric may be mid-scatter; implementations either finish
// draining the response into dst before returning ctx.Err() or guarantee dst
// was never touched — callers may reuse dst as soon as the call returns.
type ScatterReader interface {
	ReadRegionInto(ctx context.Context, to NodeID, region RegionID, offset int64, dst []byte) error
}

// VectoredCaller is the gather-call capability: a two-sided call whose
// request payload is a list of slices the target's Handler receives as one
// contiguous payload, so a caller never concatenates a bulk body behind its
// header. The TCP fabric and the fault and trace middlewares implement it
// natively; CallV (the package helper) falls back to a pooled gather copy
// for a Verbs that does not. Ownership of bufs is VectoredWriter's; the
// answer is the caller's, as Call's is.
type VectoredCaller interface {
	CallV(ctx context.Context, to NodeID, bufs [][]byte) ([]byte, error)
}

// gather assembles bufs into one pooled buffer the caller must Put.
func gather(bufs [][]byte) []byte {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	out := bufpool.Get(total)
	n := 0
	for _, b := range bufs {
		n += copy(out[n:], b)
	}
	return out
}

// WriteRegionV performs a gather write through v: natively when v implements
// VectoredWriter, otherwise by assembling bufs into one pooled buffer and
// issuing a plain WriteRegion. The result on the target region is identical
// either way — a contiguous [offset, offset+total) write of the
// concatenation of bufs.
func WriteRegionV(ctx context.Context, v Verbs, to NodeID, region RegionID, offset int64, bufs [][]byte) error {
	if vw, ok := v.(VectoredWriter); ok {
		return vw.WriteRegionV(ctx, to, region, offset, bufs)
	}
	flat := gather(bufs)
	err := v.WriteRegion(ctx, to, region, offset, flat)
	bufpool.Put(flat)
	return err
}

// CallV performs a gather call through v: natively when v implements
// VectoredCaller, otherwise as a plain Call of one pooled gather of bufs. The
// handler sees the same payload bytes either way, and it is one Call at the
// Verbs level on both paths. An answer that is a view of the gather (a
// fabric that hands the handler the caller's payload) keeps it: the gather
// is released only when the answer does not share its memory.
func CallV(ctx context.Context, v Verbs, to NodeID, bufs [][]byte) ([]byte, error) {
	if vc, ok := v.(VectoredCaller); ok {
		return vc.CallV(ctx, to, bufs)
	}
	flat := gather(bufs)
	resp, err := v.Call(ctx, to, flat)
	if !bufpool.Overlaps(resp, flat) {
		bufpool.Put(flat)
	}
	return resp, err
}

// ReadRegionInto performs a scatter read of len(dst) bytes through v:
// natively when v implements ScatterReader, otherwise via ReadRegion plus a
// copy into dst.
func ReadRegionInto(ctx context.Context, v Verbs, to NodeID, region RegionID, offset int64, dst []byte) error {
	if sr, ok := v.(ScatterReader); ok {
		return sr.ReadRegionInto(ctx, to, region, offset, dst)
	}
	data, err := v.ReadRegion(ctx, to, region, offset, len(dst))
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// Endpoint is one node's attachment to a fabric.
type Endpoint interface {
	Verbs
	// ID returns this endpoint's node ID.
	ID() NodeID
	// RegisterRegion pins size bytes and exposes them for one-sided access,
	// returning the backing buffer for local zero-copy use.
	RegisterRegion(id RegionID, size int) ([]byte, error)
	// DeregisterRegion unpins a region; in-flight remote accesses fail.
	DeregisterRegion(id RegionID) error
	// SetHandler installs the control-plane handler.
	SetHandler(h Handler)
	// Close detaches from the fabric; subsequent operations targeting this
	// node fail with ErrUnreachable.
	Close() error
}
