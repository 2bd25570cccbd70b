// Package faulty is a deterministic fault-injection layer for the transport
// fabrics. It wraps any transport.Endpoint as a middleware (see
// transport.Middleware) and injects drops, delays, duplicate deliveries,
// truncated frames, asymmetric partitions, and whole-node crash/restart
// according to a seeded schedule, so the failure-handling paths of §IV.D —
// atomic replicated writes, failover reads, re-replication, heartbeat
// failure detection and leader election — can be exercised on demand and
// replayed exactly.
//
// # Determinism
//
// Every probabilistic decision is a pure function of (seed, rule index,
// per-stream sequence number): the injector keeps one monotonically
// increasing counter per (rule, verb, source, target) stream and hashes it
// with the seed, so the n-th matching operation of a stream meets the same
// fate in every run with that seed, regardless of wall-clock jitter. Under
// the discrete-event fabric (internal/simnet) replays are byte-for-byte
// identical; under real sockets (internal/tcpnet) the decision *set* is
// identical whenever each stream issues its operations in the same order —
// streams to distinct targets may interleave freely (the parallel replica
// fan-out does), because Pct decisions key on the per-stream counter and
// crash triggers on the per-target counter. Trace() returns the log in a
// canonical sorted order so such interleavings still compare equal. Rules
// combining AfterOps with a wildcard match are the exception: their gate
// reads a shared per-rule counter, so keep them to serially-driven
// scenarios. Crash and restart triggers can be expressed in operation counts
// ("after 12 ops") for cross-fabric determinism, or in injector time ("at
// t=5s") which is exact under simulation and approximate under wall clocks.
//
// # Fault semantics
//
// Injected failures present to the caller as transport.ErrUnreachable (and
// also match ErrInjected), mirroring what a dropped frame, dead peer, or cut
// link looks like on a real fabric:
//
//   - drop: the operation never reaches the peer; the caller gets an error.
//   - delay: the operation is held for the configured duration first
//     (simulated time under DES, wall time otherwise).
//   - duplicate: the operation executes twice on the peer — the at-least-once
//     hazard a retrying transport must not introduce on its own.
//   - truncate: a one-sided write lands a torn prefix of the payload before
//     the caller gets an error (a multi-packet RDMA write dying mid-flight);
//     reads and calls fail without effect, because a receiver discards a
//     length-framed message that arrives short.
//   - partition: directional from->to unreachability, composable into
//     asymmetric splits.
//   - crash: every operation to or from the node fails until a restart event
//     revives it.
package faulty

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"godm/internal/des"
	"godm/internal/transport"
)

// ErrInjected matches every error produced by the injector, so tests can
// tell injected faults from real ones. Injected faults also match
// transport.ErrUnreachable, which is how the layers above classify them.
var ErrInjected = errors.New("faulty: injected fault")

// faultError is an injected failure. It satisfies errors.Is for both
// ErrInjected and transport.ErrUnreachable.
type faultError struct{ msg string }

func (e *faultError) Error() string { return e.msg }

func (e *faultError) Is(target error) bool {
	return target == ErrInjected || target == transport.ErrUnreachable
}

func injectedf(format string, args ...any) error {
	return &faultError{msg: "faulty: " + fmt.Sprintf(format, args...)}
}

// Clock is the injector's time source for rule windows and delays. The
// default clock reads simulated time when the context carries a des.Proc and
// wall time otherwise, so one injector serves both fabrics.
type Clock interface {
	// Now reports the time since the injector was created.
	Now(ctx context.Context) time.Duration
	// Sleep suspends the caller for d.
	Sleep(ctx context.Context, d time.Duration)
}

type autoClock struct{ base time.Time }

// NewAutoClock returns the default clock: simulated time for contexts
// carrying a des.Proc, wall time since construction otherwise.
func NewAutoClock() Clock { return &autoClock{base: time.Now()} }

func (c *autoClock) Now(ctx context.Context) time.Duration {
	if p, ok := des.FromContext(ctx); ok {
		return p.Now()
	}
	return time.Since(c.base)
}

func (c *autoClock) Sleep(ctx context.Context, d time.Duration) {
	if p, ok := des.FromContext(ctx); ok {
		p.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Stats counts injected faults by kind.
type Stats struct {
	Drops      uint64
	Delays     uint64
	Duplicates uint64
	Truncates  uint64
	Partitions uint64 // operations refused by partition rules
	CrashFails uint64 // operations refused because an endpoint was crashed
}

// Total sums all injected faults.
func (s Stats) Total() uint64 {
	return s.Drops + s.Delays + s.Duplicates + s.Truncates + s.Partitions + s.CrashFails
}

// String renders the counters.
func (s Stats) String() string {
	return fmt.Sprintf("drops=%d delays=%d dups=%d truncs=%d partition-drops=%d crash-drops=%d",
		s.Drops, s.Delays, s.Duplicates, s.Truncates, s.Partitions, s.CrashFails)
}

// seqKey names one decision stream: the n-th op of a stream meets the same
// fate in every run with the same seed.
type seqKey struct {
	rule     int
	verb     Verb
	from, to transport.NodeID
}

// Injector owns a fault schedule and wraps endpoints with it. One injector
// is shared by every endpoint of a test cluster so it can enforce
// partitions and crashes globally. It is safe for concurrent use.
type Injector struct {
	clock Clock
	seed  uint64

	mu       sync.Mutex
	enabled  bool
	rules    []Rule
	matched  []uint64 // per-rule count of operations that matched it
	seq      map[seqKey]uint64
	opsTo    map[transport.NodeID]uint64 // delivered-op counter per target
	manually map[transport.NodeID]bool   // Crash/Restart API state
	stats    Stats
	trace    []string
}

// Option configures an Injector.
type Option func(*Injector)

// WithClock overrides the injector's time source.
func WithClock(c Clock) Option { return func(inj *Injector) { inj.clock = c } }

// New returns an enabled injector with no rules. The same seed always
// produces the same decision sequence.
func New(seed int64, opts ...Option) *Injector {
	inj := &Injector{
		seed:     uint64(seed),
		clock:    NewAutoClock(),
		enabled:  true,
		seq:      map[seqKey]uint64{},
		opsTo:    map[transport.NodeID]uint64{},
		manually: map[transport.NodeID]bool{},
	}
	for _, o := range opts {
		o(inj)
	}
	return inj
}

// AddRule appends one rule to the schedule.
func (inj *Injector) AddRule(r Rule) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.rules = append(inj.rules, r)
	inj.matched = append(inj.matched, 0)
}

// AddRules appends rules in order.
func (inj *Injector) AddRules(rules []Rule) {
	for _, r := range rules {
		inj.AddRule(r)
	}
}

// Load parses a rule script (see ParseRules) and appends the result.
func (inj *Injector) Load(script string) error {
	rules, err := ParseRules(script)
	if err != nil {
		return err
	}
	inj.AddRules(rules)
	return nil
}

// SetEnabled turns the whole injector on or off. Disabling it heals every
// fault at once: rules stay loaded but nothing fires.
func (inj *Injector) SetEnabled(on bool) {
	inj.mu.Lock()
	inj.enabled = on
	inj.mu.Unlock()
}

// Crash marks a node down immediately (independent of any schedule rule).
func (inj *Injector) Crash(n transport.NodeID) {
	inj.mu.Lock()
	inj.manually[n] = true
	inj.mu.Unlock()
}

// Restart revives a node crashed with Crash. It does not override schedule
// rules: a fired crash rule keeps the node down until its own restart rule.
func (inj *Injector) Restart(n transport.NodeID) {
	inj.mu.Lock()
	delete(inj.manually, n)
	inj.mu.Unlock()
}

// Crashed reports whether node n is currently down — manually or because a
// schedule rule has fired. ctx supplies the clock for time-based triggers.
func (inj *Injector) Crashed(ctx context.Context, n transport.NodeID) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.enabled {
		return false
	}
	return inj.crashedLocked(n, inj.clock.Now(ctx))
}

// Stats returns a snapshot of the injected-fault counters.
func (inj *Injector) Stats() Stats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}

// Trace returns the decision log: one line per injected fault, identifying
// the stream and its per-target operation number but no clock readings. The
// copy is returned sorted: with concurrent but per-stream-ordered issue
// (e.g. a parallel replica fan-out) the *set* of decisions is deterministic
// while the global append order is scheduler-dependent, so the canonical
// order makes two runs with the same seed and per-stream issue order produce
// identical traces on either fabric.
func (inj *Injector) Trace() []string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]string, len(inj.trace))
	copy(out, inj.trace)
	sort.Strings(out)
	return out
}

const traceCap = 1 << 14

func (inj *Injector) traceLocked(kind string, verb Verb, from, to transport.NodeID) {
	if len(inj.trace) >= traceCap {
		return
	}
	inj.trace = append(inj.trace, fmt.Sprintf("%s %s %d->%d n%d", kind, verb, from, to, inj.opsTo[to]))
}

// Wrap returns ep with this injector's faults applied to its outbound verbs.
// Wrap every endpoint of a cluster with the same injector: crashes and
// partitions are enforced at each sender, which is equivalent to the node or
// link being gone when all traffic flows through wrapped endpoints.
func (inj *Injector) Wrap(ep transport.Endpoint) transport.Endpoint {
	return &Endpoint{inj: inj, inner: ep}
}

// Middleware returns Wrap as a transport.Middleware.
func (inj *Injector) Middleware() transport.Middleware { return inj.Wrap }

// decision is the fate decided for one operation.
type decision struct {
	err       error
	delay     time.Duration
	duplicate bool
	truncate  bool
}

// decide rolls the fate of one operation. All counters advance under the
// injector lock so the decision sequence is a pure function of the
// per-stream issue order.
func (inj *Injector) decide(ctx context.Context, verb Verb, from, to transport.NodeID) decision {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.enabled {
		return decision{}
	}
	now := inj.clock.Now(ctx)
	inj.opsTo[to]++

	if inj.crashedLocked(from, now) {
		inj.stats.CrashFails++
		inj.traceLocked("crash-src", verb, from, to)
		return decision{err: injectedf("node %d is crashed", from)}
	}
	if inj.crashedLocked(to, now) {
		inj.stats.CrashFails++
		inj.traceLocked("crash-dst", verb, from, to)
		return decision{err: injectedf("node %d is crashed", to)}
	}

	var d decision
	for i := range inj.rules {
		r := &inj.rules[i]
		switch r.Kind {
		case KindCrash, KindRestart:
			continue
		case KindPartition:
			if r.matchPair(from, to) && r.activeAt(now) {
				inj.stats.Partitions++
				inj.traceLocked("partition", verb, from, to)
				return decision{err: injectedf("%d->%d partitioned", from, to)}
			}
			continue
		}
		if !r.matchOp(verb, from, to) || !r.activeAt(now) {
			continue
		}
		inj.matched[i]++
		if r.AfterOps > 0 && inj.matched[i] <= r.AfterOps {
			continue
		}
		if r.Pct < 100 {
			key := seqKey{rule: i, verb: verb, from: from, to: to}
			inj.seq[key]++
			if !hit(inj.seed, uint64(i), inj.seq[key], r.Pct) {
				continue
			}
		}
		switch r.Kind {
		case KindDrop:
			inj.stats.Drops++
			inj.traceLocked("drop", verb, from, to)
			return decision{err: injectedf("dropped %s %d->%d", verb, from, to)}
		case KindDelay:
			inj.stats.Delays++
			inj.traceLocked("delay", verb, from, to)
			d.delay += r.Delay
		case KindDuplicate:
			inj.stats.Duplicates++
			inj.traceLocked("dup", verb, from, to)
			d.duplicate = true
		case KindTruncate:
			inj.stats.Truncates++
			inj.traceLocked("trunc", verb, from, to)
			d.truncate = true
		}
	}
	return d
}

// crashedLocked folds the node's crash/restart events that have fired by
// now: manual state first, then time-triggered events in At order, then
// op-count-triggered events in AfterOps order. Schedules should use one
// trigger dimension per node; when mixed, op-based events win.
func (inj *Injector) crashedLocked(n transport.NodeID, now time.Duration) bool {
	state := inj.manually[n]
	// Rules are scanned twice in trigger order per dimension; schedules are
	// tiny (a handful of rules), so no index is kept.
	for _, dim := range []bool{false, true} { // time events, then op events
		type fired struct {
			key   uint64
			crash bool
		}
		var events []fired
		for i := range inj.rules {
			r := &inj.rules[i]
			if (r.Kind != KindCrash && r.Kind != KindRestart) || r.Node != n {
				continue
			}
			opBased := r.AfterOps > 0
			if opBased != dim {
				continue
			}
			if opBased {
				if inj.opsTo[n] > r.AfterOps {
					events = append(events, fired{key: r.AfterOps, crash: r.Kind == KindCrash})
				}
			} else if now >= r.At {
				events = append(events, fired{key: uint64(r.At), crash: r.Kind == KindCrash})
			}
		}
		for i := 1; i < len(events); i++ { // insertion sort by trigger point
			for j := i; j > 0 && events[j].key < events[j-1].key; j-- {
				events[j], events[j-1] = events[j-1], events[j]
			}
		}
		for _, ev := range events {
			state = ev.crash
		}
	}
	return state
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche of its input, which makes hit() a pure function of its inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hit reports whether the seq-th operation of a stream falls inside pct.
func hit(seed, rule, seq uint64, pct float64) bool {
	h := splitmix64(seed ^ splitmix64(rule^splitmix64(seq)))
	return float64(h>>11)/float64(1<<53)*100 < pct
}

// Endpoint applies an Injector's faults to one node's outbound verbs. Local
// operations — region registration, handler installation, Close — pass
// through untouched.
type Endpoint struct {
	inj   *Injector
	inner transport.Endpoint
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Inner returns the wrapped endpoint.
func (f *Endpoint) Inner() transport.Endpoint { return f.inner }

// ID implements transport.Endpoint.
func (f *Endpoint) ID() transport.NodeID { return f.inner.ID() }

// RegisterRegion implements transport.Endpoint.
func (f *Endpoint) RegisterRegion(id transport.RegionID, size int) ([]byte, error) {
	return f.inner.RegisterRegion(id, size)
}

// DeregisterRegion implements transport.Endpoint.
func (f *Endpoint) DeregisterRegion(id transport.RegionID) error {
	return f.inner.DeregisterRegion(id)
}

// SetHandler implements transport.Endpoint.
func (f *Endpoint) SetHandler(h transport.Handler) { f.inner.SetHandler(h) }

// Close implements transport.Endpoint.
func (f *Endpoint) Close() error { return f.inner.Close() }

// admit rolls one outbound operation's fate and serves its injected delay. A
// non-nil error is the operation's outcome: it never reaches the peer.
func (f *Endpoint) admit(ctx context.Context, verb Verb, to transport.NodeID) (decision, error) {
	d := f.inj.decide(ctx, verb, f.inner.ID(), to)
	if d.delay > 0 {
		f.inj.clock.Sleep(ctx, d.delay)
		if err := ctx.Err(); err != nil {
			return d, err
		}
	}
	return d, d.err
}

// WriteRegion implements transport.Verbs. A truncated write lands a torn
// prefix on the peer before failing — the §IV.D atomicity machinery above
// must make such writes invisible.
func (f *Endpoint) WriteRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, data []byte) error {
	d, err := f.admit(ctx, VerbWrite, to)
	if err != nil {
		return err
	}
	if d.truncate {
		_ = f.inner.WriteRegion(ctx, to, region, offset, data[:len(data)/2])
		return injectedf("truncated write %d->%d after %d/%d bytes", f.inner.ID(), to, len(data)/2, len(data))
	}
	err = f.inner.WriteRegion(ctx, to, region, offset, data)
	if err == nil && d.duplicate {
		_ = f.inner.WriteRegion(ctx, to, region, offset, data)
	}
	return err
}

// ReadRegion implements transport.Verbs. A truncated read charges the fabric
// but discards the short response, as a length-framed receiver would.
func (f *Endpoint) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	d, err := f.admit(ctx, VerbRead, to)
	if err != nil {
		return nil, err
	}
	if d.truncate {
		_, _ = f.inner.ReadRegion(ctx, to, region, offset, n)
		return nil, injectedf("truncated read %d->%d", f.inner.ID(), to)
	}
	out, err := f.inner.ReadRegion(ctx, to, region, offset, n)
	if err == nil && d.duplicate {
		_, _ = f.inner.ReadRegion(ctx, to, region, offset, n)
	}
	return out, err
}

// ReadRegionInto implements transport.ScatterReader under the same fault
// schedule as ReadRegion. A truncated read never touches dst (the short
// response is discarded at the framing layer), honouring the ScatterReader
// ownership contract that dst is released untouched on error.
func (f *Endpoint) ReadRegionInto(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	d, err := f.admit(ctx, VerbRead, to)
	if err != nil {
		return err
	}
	if d.truncate {
		_, _ = f.inner.ReadRegion(ctx, to, region, offset, len(dst))
		return injectedf("truncated read %d->%d", f.inner.ID(), to)
	}
	err = transport.ReadRegionInto(ctx, f.inner, to, region, offset, dst)
	if err == nil && d.duplicate {
		_ = transport.ReadRegionInto(ctx, f.inner, to, region, offset, dst)
	}
	return err
}

// Call implements transport.Verbs. A duplicated call executes the handler
// twice — the at-least-once hazard the control-plane protocols must absorb;
// a truncated call never reaches the handler.
func (f *Endpoint) Call(ctx context.Context, to transport.NodeID, payload []byte) ([]byte, error) {
	d, err := f.admit(ctx, VerbCall, to)
	if err != nil {
		return nil, err
	}
	if d.truncate {
		return nil, injectedf("truncated call %d->%d", f.inner.ID(), to)
	}
	resp, err := f.inner.Call(ctx, to, payload)
	if err == nil && d.duplicate {
		_, _ = f.inner.Call(ctx, to, payload)
	}
	return resp, err
}

// CallV implements transport.VectoredCaller under Call's fault schedule, so
// a gather call is one VerbCall to the rules and the bufs pass through
// unassembled.
func (f *Endpoint) CallV(ctx context.Context, to transport.NodeID, bufs [][]byte) ([]byte, error) {
	d, err := f.admit(ctx, VerbCall, to)
	if err != nil {
		return nil, err
	}
	if d.truncate {
		return nil, injectedf("truncated call %d->%d", f.inner.ID(), to)
	}
	resp, err := transport.CallV(ctx, f.inner, to, bufs)
	if err == nil && d.duplicate {
		_, _ = transport.CallV(ctx, f.inner, to, bufs)
	}
	return resp, err
}
