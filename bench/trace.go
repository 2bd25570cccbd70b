package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"godm/internal/transport"
)

// The traced pass records spans from outside the program: a root span around
// each API call the load generator makes, and a child span around each verb
// the owner's endpoint issues on its behalf. The verb spans come from
// timedEndpoint, a transport middleware installed twice on the -rtt
// workloads — above and below the fault injector — so the injected delay is
// measured rather than assumed.

type verbKind int

const (
	verbCall verbKind = iota
	verbWrite
	verbRead
	verbKinds
)

// timing level of a timedEndpoint.
const (
	levelOuter = iota // what core sees: fabric + injected delay
	levelInner        // what tcpnet costs on its own
)

// tracer collects the traced pass's spans and counters. While off, every
// wrapper is a pass-through costing one atomic load, which lets one process
// alternate traced and untraced windows and report the difference as the
// tracing overhead.
type tracer struct {
	on   atomic.Bool
	base time.Time

	mu         sync.Mutex
	inner      [verbKinds][]float64 // per-verb durations below the injector, µs
	outerSum   time.Duration        // Σ verb durations above the injector
	outerN     int64
	innerSum   time.Duration
	background atomic.Int64 // verbs that ended outside the call that started them

	handlerNs    atomic.Int64 // Σ donor handler time
	handlerCalls atomic.Int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

type callRecKey struct{}

// callRec gathers the verb spans of one client's current call. The client
// has one call outstanding at a time and reuses the record (and the context
// that carries it) for every call, so tracing adds no allocation per op.
// gen tells a verb that outlives its call (a hedged read cancelled late, a
// detached free) from the verbs of the next call.
type callRec struct {
	mu     sync.Mutex
	gen    uint64
	active bool
	spans  []span
}

func withCallRec(ctx context.Context, rec *callRec) context.Context {
	return context.WithValue(ctx, callRecKey{}, rec)
}

func (r *callRec) begin() {
	r.mu.Lock()
	r.gen++
	r.active = true
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// end closes the call and returns its child spans; the slice is valid until
// the next begin.
func (r *callRec) end() []span {
	r.mu.Lock()
	r.active = false
	s := r.spans
	r.mu.Unlock()
	return s
}

func (r *callRec) current() uint64 {
	r.mu.Lock()
	g := r.gen
	if !r.active {
		g = 0
	}
	r.mu.Unlock()
	return g
}

func (r *callRec) add(gen uint64, s span) bool {
	r.mu.Lock()
	ok := r.active && r.gen == gen
	if ok {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
	return ok
}

// verbStart opens a verb span: the start time and the call it belongs to.
func (t *tracer) verbStart(ctx context.Context) (start int64, rec *callRec, gen uint64) {
	rec, _ = ctx.Value(callRecKey{}).(*callRec)
	if rec != nil {
		gen = rec.current()
	}
	return t.now(), rec, gen
}

func (t *tracer) verbEnd(level int, kind verbKind, start int64, rec *callRec, gen uint64) {
	end := t.now()
	d := time.Duration(end - start)
	t.mu.Lock()
	if level == levelInner {
		t.inner[kind] = append(t.inner[kind], float64(d)/1e3)
		t.innerSum += d
	} else {
		t.outerSum += d
		t.outerN++
	}
	t.mu.Unlock()
	if level != levelOuter {
		return
	}
	// gen 0 is a verb of a call that began before tracing was switched on;
	// it belongs to no traced call and is not background work either.
	if rec != nil && gen != 0 && !rec.add(gen, span{start, end}) {
		t.background.Add(1)
	}
}

// timedEndpoint is the bench's timing/handler wrapper. It forwards the
// vectored-write and scatter-read capabilities: embedding transport.Endpoint
// alone would hide them and silently flip core onto the pooled-copy
// fallback, changing allocs_per_op.
type timedEndpoint struct {
	transport.Endpoint
	tr    *tracer
	level int
}

var (
	_ transport.VectoredWriter = (*timedEndpoint)(nil)
	_ transport.ScatterReader  = (*timedEndpoint)(nil)
)

// timed returns a middleware recording verbs at the given level on tr.
func timed(tr *tracer, level int) transport.Middleware {
	return func(ep transport.Endpoint) transport.Endpoint {
		return &timedEndpoint{Endpoint: ep, tr: tr, level: level}
	}
}

func (e *timedEndpoint) WriteRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, data []byte) error {
	if !e.tr.on.Load() {
		return e.Endpoint.WriteRegion(ctx, to, region, offset, data)
	}
	start, rec, gen := e.tr.verbStart(ctx)
	err := e.Endpoint.WriteRegion(ctx, to, region, offset, data)
	e.tr.verbEnd(e.level, verbWrite, start, rec, gen)
	return err
}

func (e *timedEndpoint) WriteRegionV(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, bufs [][]byte) error {
	if !e.tr.on.Load() {
		return transport.WriteRegionV(ctx, e.Endpoint, to, region, offset, bufs)
	}
	start, rec, gen := e.tr.verbStart(ctx)
	err := transport.WriteRegionV(ctx, e.Endpoint, to, region, offset, bufs)
	e.tr.verbEnd(e.level, verbWrite, start, rec, gen)
	return err
}

func (e *timedEndpoint) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	if !e.tr.on.Load() {
		return e.Endpoint.ReadRegion(ctx, to, region, offset, n)
	}
	start, rec, gen := e.tr.verbStart(ctx)
	out, err := e.Endpoint.ReadRegion(ctx, to, region, offset, n)
	e.tr.verbEnd(e.level, verbRead, start, rec, gen)
	return out, err
}

func (e *timedEndpoint) ReadRegionInto(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	if !e.tr.on.Load() {
		return transport.ReadRegionInto(ctx, e.Endpoint, to, region, offset, dst)
	}
	start, rec, gen := e.tr.verbStart(ctx)
	err := transport.ReadRegionInto(ctx, e.Endpoint, to, region, offset, dst)
	e.tr.verbEnd(e.level, verbRead, start, rec, gen)
	return err
}

func (e *timedEndpoint) Call(ctx context.Context, to transport.NodeID, payload []byte) ([]byte, error) {
	if !e.tr.on.Load() {
		return e.Endpoint.Call(ctx, to, payload)
	}
	start, rec, gen := e.tr.verbStart(ctx)
	resp, err := e.Endpoint.Call(ctx, to, payload)
	e.tr.verbEnd(e.level, verbCall, start, rec, gen)
	return resp, err
}

// SetHandler intercepts the control-plane handler core installs, so the time
// a donor spends serving two-sided requests is measured at its boundary.
func (e *timedEndpoint) SetHandler(h transport.Handler) {
	if h == nil {
		e.Endpoint.SetHandler(nil)
		return
	}
	e.Endpoint.SetHandler(func(ctx context.Context, from transport.NodeID, payload []byte) ([]byte, error) {
		if !e.tr.on.Load() {
			return h(ctx, from, payload)
		}
		start := time.Now()
		resp, err := h(ctx, from, payload)
		e.tr.handlerNs.Add(int64(time.Since(start)))
		e.tr.handlerCalls.Add(1)
		return resp, err
	})
}
