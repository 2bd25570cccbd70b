package trace

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// tick returns a deterministic clock that advances 1ms per reading.
func tick() func() time.Duration {
	var t time.Duration
	return func() time.Duration {
		t += time.Millisecond
		return t
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "orphan")
	if sp != nil {
		t.Fatalf("Start without a tracer returned a live span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without a tracer changed the context")
	}
	// All of these must not panic.
	sp.Annotate("k", 1)
	sp.AnnotateInt("k", 1)
	sp.End()
	sp.EndErr(errors.New("x"))
	if sp.TraceID() != 0 {
		t.Fatalf("nil span has trace ID %d", sp.TraceID())
	}
	var tr *Tracer
	if _, sp := tr.Start(ctx, "x"); sp != nil {
		t.Fatalf("nil tracer returned a live span")
	}
	// An untraced hot path pays nothing for an integer attribute, however
	// large: Annotate's interface argument would box this one.
	big := 1 << 20
	if allocs := testing.AllocsPerRun(100, func() { sp.AnnotateInt("entry", big); big++ }); allocs != 0 {
		t.Fatalf("AnnotateInt on a nil span allocates %.1f objects, want 0", allocs)
	}
}

func TestSpanParentingAndIDs(t *testing.T) {
	tr := New(WithClock(tick()))
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "root")
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans(root.TraceID())
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "root" || spans[0].Parent != 0 {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].Name != "child" || spans[1].Parent != spans[0].ID {
		t.Fatalf("child not parented to root: %+v", spans[1])
	}
	if spans[2].Name != "grandchild" || spans[2].Parent != spans[1].ID {
		t.Fatalf("grandchild not parented to child: %+v", spans[2])
	}
	for _, s := range spans {
		if s.Trace != root.TraceID() {
			t.Fatalf("span %q escaped the trace: %+v", s.Name, s)
		}
	}
}

func TestSeparateRootsGetSeparateTraces(t *testing.T) {
	tr := New(WithClock(tick()))
	ctx := WithTracer(context.Background(), tr)
	_, a := Start(ctx, "a")
	_, b := Start(ctx, "b")
	a.End()
	b.End()
	if a.TraceID() == b.TraceID() {
		t.Fatalf("independent roots share trace ID %d", a.TraceID())
	}
	ids := tr.TraceIDs()
	if len(ids) != 2 {
		t.Fatalf("TraceIDs = %v, want 2 entries", ids)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := New(WithClock(tick()), WithCapacity(2))
	ctx := WithTracer(context.Background(), tr)
	var ids []TraceID
	for _, name := range []string{"one", "two", "three"} {
		_, sp := Start(ctx, name)
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	if got := tr.Spans(ids[0]); len(got) != 0 {
		t.Fatalf("evicted trace still present: %v", got)
	}
	if got := tr.Spans(ids[2]); len(got) != 1 || got[0].Name != "three" {
		t.Fatalf("newest trace missing: %v", got)
	}
	if got := tr.TraceIDs(); len(got) != 2 {
		t.Fatalf("TraceIDs after eviction = %v, want 2", got)
	}
}

func TestAnnotationsAndErrors(t *testing.T) {
	tr := New(WithClock(tick()))
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "op")
	sp.Annotate("entry", 42)
	sp.AnnotateInt("class", -4096)
	sp.EndErr(errors.New("boom"))
	spans := tr.Spans(sp.TraceID())
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	attrs := strings.Join(spans[0].Attrs, " ")
	if !strings.Contains(attrs, "entry=42") || !strings.Contains(attrs, "class=-4096") || !strings.Contains(attrs, "err=boom") {
		t.Fatalf("attrs = %q", attrs)
	}
}

func TestTimelineRendering(t *testing.T) {
	tr := New(WithClock(tick()))
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "swap.fault")
	_, child := Start(ctx, "net.call")
	child.Annotate("to", 2)
	child.End()
	root.End()

	tl := tr.Timeline(root.TraceID())
	lines := strings.Split(strings.TrimRight(tl, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("timeline has %d lines:\n%s", len(lines), tl)
	}
	if !strings.Contains(lines[0], "swap.fault") || strings.HasPrefix(lines[0], " ") {
		t.Fatalf("root line wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  ") || !strings.Contains(lines[1], "net.call to=2") {
		t.Fatalf("child line not indented under root: %q", lines[1])
	}
}

func TestTimelineOrphanParentRendersAsRoot(t *testing.T) {
	// A span whose parent lives in another process's ring (remote parent)
	// must still render, as a root.
	spans := []SpanRecord{
		{Trace: 1, ID: 9, Parent: 5, Name: "net.serve", Start: time.Millisecond, End: 2 * time.Millisecond},
	}
	tl := Timeline(spans)
	if !strings.Contains(tl, "net.serve") || strings.HasPrefix(tl, " ") {
		t.Fatalf("orphan did not render as root:\n%s", tl)
	}
	if Timeline(nil) != "" {
		t.Fatalf("empty span set rendered non-empty timeline")
	}
}

func TestTimelineDeterministic(t *testing.T) {
	run := func() string {
		tr := New(WithClock(tick()))
		ctx := WithTracer(context.Background(), tr)
		ctx, root := Start(ctx, "core.put_remote")
		_, pick := Start(ctx, "placement.pick")
		pick.End()
		wctx, w := Start(ctx, "repl.write")
		_, c := Start(wctx, "net.call")
		c.Annotate("to", 3)
		c.End()
		w.End()
		root.End()
		return tr.Timeline(root.TraceID())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same run, different timelines:\n--- a\n%s--- b\n%s", a, b)
	}
	if a == "" {
		t.Fatalf("empty timeline")
	}
}

func TestWireRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: 0xDEADBEEF, Span: 77}
	payload := []byte{1, 2, 3}
	enveloped := injectWire(sc, payload)
	if len(enveloped) != WireHeaderSize+len(payload) {
		t.Fatalf("envelope length %d", len(enveloped))
	}
	got, bare, ok := extractWire(enveloped)
	if !ok || got != sc || string(bare) != string(payload) {
		t.Fatalf("round trip: ok=%v sc=%+v bare=%v", ok, got, bare)
	}
}

func TestWirePassesBarePayloadThrough(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, {1}, []byte("short"), make([]byte, WireHeaderSize)} {
		sc, bare, ok := extractWire(payload)
		if ok {
			t.Fatalf("payload %v claimed an envelope: %+v", payload, sc)
		}
		if string(bare) != string(payload) {
			t.Fatalf("bare payload mutated: %v != %v", bare, payload)
		}
	}
}

func TestNowPrefersTracerClock(t *testing.T) {
	tr := New(WithClock(func() time.Duration { return 42 * time.Second }))
	ctx := WithTracer(context.Background(), tr)
	if got := Now(ctx); got != 42*time.Second {
		t.Fatalf("Now = %v, want tracer clock", got)
	}
	// Without a tracer it falls back to wall time since process start —
	// monotone, non-negative.
	if got := Now(context.Background()); got < 0 {
		t.Fatalf("wall fallback negative: %v", got)
	}
}
