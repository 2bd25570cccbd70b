// Package trace provides end-to-end operation tracing for the
// disaggregated-memory stack: spans propagated through context.Context inside
// a process and carried across the fabric by a transport middleware, so one
// page fault can be followed swap → placement → replication → transport and
// reassembled into a single timeline.
//
// Determinism contract: span and trace IDs are sequential counters, and every
// timestamp comes from a pluggable clock — simulated time when the context
// carries a des.Proc, the tracer's clock otherwise. A serial DES run
// therefore produces byte-identical traces for the same seed; nothing in this
// package reads the wall clock unless the default clock is left in place.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"godm/internal/des"
)

// TraceID names one end-to-end operation.
type TraceID uint64

// SpanID names one timed step within a trace.
type SpanID uint64

// SpanContext is the propagated (trace, span) pair: the identity a child span
// inherits, locally via context and remotely via the wire envelope.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// SpanRecord is one finished span in the tracer's ring buffer.
type SpanRecord struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for root spans and remote parents from another process's ring
	Name   string
	Start  time.Duration
	End    time.Duration
	Attrs  []string // "key=value", in annotation order
}

// DefaultCapacity is the default size of the finished-span ring buffer.
const DefaultCapacity = 4096

// Tracer allocates span IDs and retains the most recent finished spans in a
// bounded ring buffer for the /trace export surface.
type Tracer struct {
	clock  func() time.Duration
	cap    int
	flight *Flight

	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	mu   sync.Mutex
	ring []SpanRecord
	head int // next write position
	n    int // filled entries
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock replaces the tracer's clock. Deterministic runs pass the DES
// environment's Now; contexts carrying a des.Proc override this per-span
// anyway, so the tracer clock only matters for spans started outside any
// simulation process.
func WithClock(fn func() time.Duration) Option {
	return func(t *Tracer) {
		if fn != nil {
			t.clock = fn
		}
	}
}

// WithFlight attaches a flight recorder: every finished span is forwarded to
// f, and the end of a local root span (no parent, or a remote parent from
// across the wire) captures the trace's timeline into f's completed ring.
func WithFlight(f *Flight) Option {
	return func(t *Tracer) { t.flight = f }
}

// WithCapacity sets how many finished spans the ring retains (minimum 1).
func WithCapacity(n int) Option {
	return func(t *Tracer) {
		if n < 1 {
			n = 1
		}
		t.cap = n
	}
}

// New returns a tracer. The default clock is wall time since the tracer was
// created.
func New(opts ...Option) *Tracer {
	start := time.Now()
	t := &Tracer{
		clock: func() time.Duration { return time.Since(start) },
		cap:   DefaultCapacity,
	}
	for _, o := range opts {
		o(t)
	}
	t.ring = make([]SpanRecord, t.cap)
	return t
}

type tracerKey struct{}
type spanKey struct{}

// spanCtxVal is the context payload for the active span: its identity plus
// whether it arrived over the wire (a remote parent). The first span started
// under a remote parent is a local root — its end completes the trace as seen
// from this node, which is what the flight recorder captures on.
type spanCtxVal struct {
	sc     SpanContext
	remote bool
}

// WithTracer returns a context that carries tr; Start on that context (and on
// every context derived from it) records spans against tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, tr)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// SpanContextFrom returns the active span identity carried by ctx.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	v, ok := ctx.Value(spanKey{}).(spanCtxVal)
	return v.sc, ok
}

// withSpanContext marks sc as the active span (the parent of future children).
func withSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtxVal{sc: sc})
}

// withRemoteSpanContext marks sc as the active span and remembers that it
// came from another process — the transport middleware uses this on inbound
// calls so the serve span registers as a local root for the flight recorder.
func withRemoteSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtxVal{sc: sc, remote: true})
}

// clockFor picks the observability clock for ctx: the simulated clock when a
// des.Proc rides the context, the tracer clock otherwise.
func (t *Tracer) clockFor(ctx context.Context) func() time.Duration {
	if p, ok := des.FromContext(ctx); ok {
		return p.Now
	}
	return t.clock
}

// processStart anchors Now's wall-clock fallback; only latency differences
// are ever observed, so the base is irrelevant.
var processStart = time.Now()

// Now returns the observability clock reading for ctx: simulated time when
// ctx carries a des.Proc, otherwise the ctx tracer's clock, otherwise wall
// time since process start. Use it to timestamp latency observations so
// simulated components stay deterministic.
func Now(ctx context.Context) time.Duration {
	if p, ok := des.FromContext(ctx); ok {
		return p.Now()
	}
	if tr := TracerFrom(ctx); tr != nil {
		return tr.clock()
	}
	return time.Since(processStart)
}

// Span is an active (unfinished) span. A nil *Span is a valid no-op, so
// instrumented code never branches on whether tracing is enabled. A span is
// owned by the goroutine that started it.
type Span struct {
	tracer    *Tracer
	now       func() time.Duration
	sc        SpanContext
	parent    SpanID
	localRoot bool // no parent, or the parent is remote: ending completes the trace locally
	name      string
	start     time.Duration
	attrs     []string
}

// Start begins a span named name. When ctx carries no tracer it returns
// (ctx, nil) and the nil span swallows all further calls. The returned
// context carries the new span as the parent for children started from it.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return TracerFrom(ctx).Start(ctx, name)
}

// Start begins a span against this tracer regardless of whether ctx carries
// one — the transport middleware uses this so every fabric operation is
// spanned. A nil tracer returns (ctx, nil).
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{tracer: t, now: t.clockFor(ctx), name: name}
	if v, ok := ctx.Value(spanKey{}).(spanCtxVal); ok {
		s.sc.Trace = v.sc.Trace
		s.parent = v.sc.Span
		s.localRoot = v.remote
	} else {
		s.sc.Trace = TraceID(t.nextTrace.Add(1))
		s.localRoot = true
	}
	s.sc.Span = SpanID(t.nextSpan.Add(1))
	s.start = s.now()
	return withSpanContext(ctx, s.sc), s
}

// TraceID returns the span's trace, or zero for a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.sc.Trace
}

// Context returns the span's propagated identity.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Annotate attaches a key=value attribute to the span.
func (s *Span) Annotate(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, fmt.Sprintf("%s=%v", key, value))
}

// AnnotateInt is Annotate for an integer, rendered the same. An interface
// argument is boxed by the caller, nil span or not — an allocation for any
// value of 256 and up — so the untraced hot paths annotate through here.
func (s *Span) AnnotateInt(key string, v int) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, key+"="+strconv.Itoa(v))
}

// End finishes the span and records it in the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tracer.record(SpanRecord{
		Trace:  s.sc.Trace,
		ID:     s.sc.Span,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		End:    s.now(),
		Attrs:  s.attrs,
	}, s.localRoot)
}

// EndErr annotates the span with err (when non-nil) and finishes it.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.Annotate("err", err)
	}
	s.End()
}

func (t *Tracer) record(r SpanRecord, completes bool) {
	t.mu.Lock()
	t.ring[t.head] = r
	t.head = (t.head + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
	// Outside the ring lock: the flight recorder takes its own lock and may
	// copy whole timelines.
	t.flight.observe(r, completes)
}

// Flight returns the attached flight recorder; nil for a nil tracer or one
// without a recorder.
func (t *Tracer) Flight() *Flight {
	if t == nil {
		return nil
	}
	return t.flight
}

// records returns the retained spans, oldest first.
func (t *Tracer) records() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	start := t.head - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Spans returns the retained spans of one trace ordered by (Start, ID) —
// the reassembled multi-layer view of a single operation.
func (t *Tracer) Spans(id TraceID) []SpanRecord {
	var out []SpanRecord
	for _, r := range t.records() {
		if r.Trace == id {
			out = append(out, r)
		}
	}
	sortSpans(out)
	return out
}

// TraceIDs returns the distinct trace IDs present in the ring, in order of
// first appearance (oldest trace first).
func (t *Tracer) TraceIDs() []TraceID {
	seen := map[TraceID]bool{}
	var out []TraceID
	for _, r := range t.records() {
		if !seen[r.Trace] {
			seen[r.Trace] = true
			out = append(out, r.Trace)
		}
	}
	return out
}
