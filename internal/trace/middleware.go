package trace

import (
	"context"

	"godm/internal/transport"
)

// Middleware returns a transport middleware that spans every fabric operation
// against tr and carries trace identity across the wire on two-sided calls:
// the client side prepends the envelope, the server side strips it and runs
// the handler under a context that carries the caller's span as parent (and
// tr itself, so handler-side instrumentation keeps recording into the same
// ring). One-sided reads and writes land without involving the remote CPU —
// true to RDMA semantics they get client-side spans only.
//
// A nil tracer yields the identity middleware.
func Middleware(tr *Tracer) transport.Middleware {
	return func(ep transport.Endpoint) transport.Endpoint {
		if tr == nil {
			return ep
		}
		return &traced{ep: ep, tr: tr}
	}
}

type traced struct {
	ep transport.Endpoint
	tr *Tracer
}

var _ transport.Endpoint = (*traced)(nil)

func (t *traced) ID() transport.NodeID { return t.ep.ID() }

func (t *traced) RegisterRegion(id transport.RegionID, size int) ([]byte, error) {
	return t.ep.RegisterRegion(id, size)
}

func (t *traced) DeregisterRegion(id transport.RegionID) error {
	return t.ep.DeregisterRegion(id)
}

func (t *traced) Close() error { return t.ep.Close() }

func (t *traced) WriteRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, data []byte) error {
	ctx, sp := t.tr.Start(ctx, "net.write")
	sp.Annotate("to", int(to))
	sp.Annotate("bytes", len(data))
	err := t.ep.WriteRegion(ctx, to, region, offset, data)
	sp.EndErr(err)
	return err
}

func (t *traced) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	ctx, sp := t.tr.Start(ctx, "net.read")
	sp.Annotate("to", int(to))
	sp.Annotate("bytes", n)
	data, err := t.ep.ReadRegion(ctx, to, region, offset, n)
	sp.EndErr(err)
	return data, err
}

func (t *traced) ReadRegionInto(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	ctx, sp := t.tr.Start(ctx, "net.read")
	sp.Annotate("to", int(to))
	sp.Annotate("bytes", len(dst))
	err := transport.ReadRegionInto(ctx, t.ep, to, region, offset, dst)
	sp.EndErr(err)
	return err
}

func (t *traced) Call(ctx context.Context, to transport.NodeID, payload []byte) ([]byte, error) {
	ctx, sp := t.tr.Start(ctx, "net.call")
	sp.Annotate("to", int(to))
	sp.Annotate("bytes", len(payload))
	resp, err := t.ep.Call(ctx, to, injectWire(sp.Context(), payload))
	sp.EndErr(err)
	return resp, err
}

// CallV is Call for a gather list: the envelope rides as one more slice in
// front of bufs, so a bulk payload is not copied behind it.
func (t *traced) CallV(ctx context.Context, to transport.NodeID, bufs [][]byte) ([]byte, error) {
	ctx, sp := t.tr.Start(ctx, "net.call")
	sp.Annotate("to", int(to))
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	sp.Annotate("bytes", total)
	vec := append([][]byte{injectWire(sp.Context(), nil)}, bufs...)
	resp, err := transport.CallV(ctx, t.ep, to, vec)
	sp.EndErr(err)
	return resp, err
}

// SetHandler wraps h so inbound calls run under a context carrying the
// remote caller's span (reassembling one cross-node trace) and this tracer.
func (t *traced) SetHandler(h transport.Handler) {
	if h == nil {
		t.ep.SetHandler(nil)
		return
	}
	t.ep.SetHandler(func(ctx context.Context, from transport.NodeID, payload []byte) ([]byte, error) {
		ctx = WithTracer(ctx, t.tr)
		if sc, bare, ok := extractWire(payload); ok {
			ctx = withRemoteSpanContext(ctx, sc)
			payload = bare
		}
		ctx, sp := t.tr.Start(ctx, "net.serve")
		sp.Annotate("from", int(from))
		resp, err := h(ctx, from, payload)
		sp.EndErr(err)
		return resp, err
	})
}
