package ec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"godm/internal/bufpool"
	"godm/internal/des"
	"godm/internal/metrics"
	"godm/internal/replication"
	"godm/internal/trace"
)

// ShardStore is an optional Store extension: put one shard of a stripe with
// its stripe coordinates, so the hosting donor can record shard metadata
// (index, k, m) and refuse a second shard of the same stripe — the
// distinct-donor placement rule enforced host-side.
type ShardStore interface {
	PutShard(ctx context.Context, node replication.NodeID, id replication.EntryID, idx, k, m int, data []byte) error
}

// HedgeFunc returns the hedge delay for reads touching a donor: how long a
// shard fetch may run before parity is fetched in its stead. The node
// manager derives it from the digest plane's per-donor get-p99; zero means
// no figure is known for that donor.
type HedgeFunc func(node replication.NodeID) time.Duration

// rollbackTimeout bounds the detached rollback of an aborted striped write,
// mirroring the replication protocol's.
const rollbackTimeout = 2 * time.Second

// stripeInfo is the owner-side record of one stripe — the raw payload length
// every shard length and read plan derives from. It lives beside the remote
// store's handles and shares their lifetime (lost with the owner).
type stripeInfo struct {
	rawLen int
}

// codingMetrics instruments the striped data path.
type codingMetrics struct {
	writes       *metrics.Counter
	writeAborts  *metrics.Counter
	reads        *metrics.Counter
	degraded     *metrics.Counter
	hedges       *metrics.Counter
	restores     *metrics.Counter
	reconstructs *metrics.Counter
	writeLatency *metrics.Histogram
	readLatency  *metrics.Histogram
}

func newCodingMetrics(reg *metrics.Registry) codingMetrics {
	return codingMetrics{
		writes:       reg.Counter("writes"),
		writeAborts:  reg.Counter("write_aborts"),
		reads:        reg.Counter("reads"),
		degraded:     reg.Counter("degraded_reads"),
		hedges:       reg.Counter("hedged_reads"),
		restores:     reg.Counter("restores"),
		reconstructs: reg.Counter("reconstructs"),
		writeLatency: reg.Histogram("write_latency"),
		readLatency:  reg.Histogram("read_latency"),
	}
}

// CodingPolicy implements replication.Policy with RS(k, m) striping: writes
// encode on the owner and fan the k+m shards out to distinct donors in one
// round trip; reads scatter the k data shards straight into the result
// buffer and reconstruct from parity when a donor is dead or slower than its
// hedge delay; Restore rebuilds lost shards from any k survivors instead of
// re-copying full blocks.
type CodingPolicy struct {
	code   *Code
	store  replication.Store
	serial bool
	hedge  HedgeFunc
	met    codingMetrics

	mu      sync.Mutex
	stripes map[replication.EntryID]stripeInfo
}

// PolicyOption configures a CodingPolicy.
type PolicyOption func(*CodingPolicy)

// WithHedge installs the per-donor hedge-delay source.
func WithHedge(fn HedgeFunc) PolicyOption {
	return func(p *CodingPolicy) { p.hedge = fn }
}

// WithPolicyMetrics mounts the policy's instrumentation on reg.
func WithPolicyMetrics(reg *metrics.Registry) PolicyOption {
	return func(p *CodingPolicy) {
		if reg != nil {
			p.met = newCodingMetrics(reg)
		}
	}
}

// WithSerialFanout forces serial shard fan-out and serial reads, mirroring
// replication.WithSerialFanout (the DES always gets this behavior).
func WithSerialFanout() PolicyOption {
	return func(p *CodingPolicy) { p.serial = true }
}

// NewPolicy returns an RS(k, m) coding policy over store.
func NewPolicy(k, m int, store replication.Store, opts ...PolicyOption) (*CodingPolicy, error) {
	if store == nil {
		return nil, errors.New("ec: nil store")
	}
	code, err := New(k, m)
	if err != nil {
		return nil, err
	}
	p := &CodingPolicy{
		code:    code,
		store:   store,
		met:     newCodingMetrics(metrics.NewRegistry("ec")),
		stripes: map[replication.EntryID]stripeInfo{},
	}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

var _ replication.Policy = (*CodingPolicy)(nil)

// Code exposes the underlying codec (benchmarks and tests).
func (p *CodingPolicy) Code() *Code { return p.code }

// Name implements replication.Policy.
func (p *CodingPolicy) Name() string { return fmt.Sprintf("rs%d.%d", p.code.k, p.code.m) }

// Width implements replication.Policy.
func (p *CodingPolicy) Width() int { return p.code.k + p.code.m }

// MinAlive implements replication.Policy: k shards reconstruct the stripe.
func (p *CodingPolicy) MinAlive() int { return p.code.k }

// ShardClass implements replication.Policy: each donor holds 1/k of the
// entry, rounded up.
func (p *CodingPolicy) ShardClass(entryClass int) int {
	return p.code.ShardLen(entryClass)
}

// serialIn reports whether ctx demands the deterministic serial plan.
func (p *CodingPolicy) serialIn(ctx context.Context) bool {
	if p.serial {
		return true
	}
	_, simulated := des.FromContext(ctx)
	return simulated
}

// fanout runs op for every shard position. Like the replication fan-out,
// every position is always attempted (no short-circuit) so the per-stream op
// sequence the seeded chaos replay sees stays independent of which donor
// fails first; over a real fabric positions run concurrently.
func (p *CodingPolicy) fanout(ctx context.Context, n int, op func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	if p.serialIn(ctx) || n == 1 {
		for i := 0; i < n; i++ {
			errs[i] = op(ctx, i)
		}
		return errs
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = op(ctx, i)
		}(i)
	}
	wg.Wait()
	return errs
}

func (p *CodingPolicy) putShard(ctx context.Context, node replication.NodeID, id replication.EntryID, idx int, data []byte) error {
	if ss, ok := p.store.(ShardStore); ok {
		return ss.PutShard(ctx, node, id, idx, p.code.k, p.code.m, data)
	}
	return p.store.Put(ctx, node, id, data)
}

func (p *CodingPolicy) getShard(ctx context.Context, node replication.NodeID, id replication.EntryID, dst []byte) error {
	if sc, ok := p.store.(replication.ScatterStore); ok {
		n, err := sc.GetInto(ctx, node, id, dst)
		if err == nil && n != len(dst) {
			err = fmt.Errorf("ec: shard is %d bytes, want %d", n, len(dst))
		}
		return err
	}
	data, err := p.store.Get(ctx, node, id)
	if err != nil {
		return err
	}
	if len(data) != len(dst) {
		return fmt.Errorf("ec: shard is %d bytes, want %d", len(data), len(dst))
	}
	copy(dst, data)
	return nil
}

func (p *CodingPolicy) rawLen(id replication.EntryID) (int, bool) {
	p.mu.Lock()
	info, ok := p.stripes[id]
	p.mu.Unlock()
	return info.rawLen, ok
}

// Write implements replication.Policy: encode into k+m shards and fan them
// out to the k+m nodes (nodes[i] hosts shard i) as an atomic transaction —
// any failure rolls back the shards already placed.
func (p *CodingPolicy) Write(ctx context.Context, nodes []replication.NodeID, id replication.EntryID, data []byte) error {
	total := p.code.k + p.code.m
	if len(nodes) != total {
		return fmt.Errorf("ec: got %d nodes, stripe width is %d", len(nodes), total)
	}
	if len(data) == 0 {
		return errors.New("ec: empty payload")
	}
	ctx, sp := trace.Start(ctx, "ec.write")
	sp.Annotate("entry", uint64(id))
	sp.Annotate("shards", total)
	p.met.writes.Inc()
	start := trace.Now(ctx)
	s := p.code.ShardLen(len(data))
	shards := make([][]byte, total)
	for i := range shards {
		shards[i] = bufpool.Get(s)
	}
	defer func() {
		for _, b := range shards {
			bufpool.Put(b)
		}
	}()
	p.code.Split(data, shards)
	if err := p.code.Encode(shards); err != nil {
		sp.EndErr(err)
		return err
	}
	errs := p.fanout(ctx, total, func(ctx context.Context, i int) error {
		return p.putShard(ctx, nodes[i], id, i, shards[i])
	})
	failed := -1
	for i, err := range errs {
		if err != nil {
			failed = i
			break
		}
	}
	if failed < 0 {
		p.mu.Lock()
		p.stripes[id] = stripeInfo{rawLen: len(data)}
		p.mu.Unlock()
		p.met.writeLatency.Observe(trace.Now(ctx) - start)
		sp.End()
		return nil
	}
	// Roll back the shards that did land, detached from the caller's context
	// (the abort may be that context dying), bounded by a fresh deadline.
	rbCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rollbackTimeout)
	defer cancel()
	for i, err := range errs {
		if err == nil {
			_ = p.store.Delete(rbCtx, nodes[i], id)
		}
	}
	p.met.writeAborts.Inc()
	err := fmt.Errorf("%w: shard %d on node %d: %v", replication.ErrAborted, failed, nodes[failed], errs[failed])
	sp.EndErr(err)
	return err
}

// hedgeDelay derives one read's hedge timer: the worst per-donor figure
// across the data shard donors (a read is as slow as its slowest donor).
// Zero — no figures known, or no hedge source installed — disables the
// timer; dead donors still trigger parity immediately via fetch errors.
func (p *CodingPolicy) hedgeDelay(nodes []replication.NodeID) time.Duration {
	if p.hedge == nil {
		return 0
	}
	var d time.Duration
	for _, n := range nodes[:p.code.k] {
		if h := p.hedge(n); h > d {
			d = h
		}
	}
	return d
}

// Read implements replication.Policy: fetch the k data shards scatter-style
// into the front of dst, hedging to parity + reconstruction when a donor is
// dead or slow.
func (p *CodingPolicy) Read(ctx context.Context, nodes []replication.NodeID, id replication.EntryID, dst []byte) (int, replication.NodeID, error) {
	total := p.code.k + p.code.m
	if len(nodes) != total {
		return 0, 0, fmt.Errorf("ec: got %d nodes, stripe width is %d", len(nodes), total)
	}
	raw, ok := p.rawLen(id)
	if !ok {
		return 0, 0, fmt.Errorf("%w: entry %d: no stripe record", replication.ErrNoReplica, id)
	}
	if len(dst) < raw {
		return 0, 0, fmt.Errorf("ec: dst holds %d bytes, entry %d stores %d", len(dst), id, raw)
	}
	ctx, sp := trace.Start(ctx, "ec.read")
	sp.Annotate("entry", uint64(id))
	p.met.reads.Inc()
	start := trace.Now(ctx)
	err := p.code.ReadInto(ctx, dst[:raw], func(ctx context.Context, idx int, buf []byte) error {
		return p.getShard(ctx, nodes[idx], id, buf)
	}, ReadOpts{
		Serial: p.serialIn(ctx),
		Hedge:  p.hedgeDelay(nodes),
		OnHedge: func() {
			p.met.hedges.Inc()
			sp.Annotate("hedged", 1)
		},
		OnDegraded: func() {
			p.met.degraded.Inc()
			sp.Annotate("degraded", 1)
		},
	})
	if err != nil {
		err = fmt.Errorf("%w: entry %d: %w", replication.ErrNoReplica, id, err)
		sp.EndErr(err)
		return 0, 0, err
	}
	p.met.readLatency.Observe(trace.Now(ctx) - start)
	sp.End()
	return raw, nodes[0], nil
}

// ReadAt implements replication.Policy: map the byte range onto the data
// shards holding it and read just those sub-ranges one-sided, each into its
// piece of dst; any failure falls back to a full (possibly degraded) read.
func (p *CodingPolicy) ReadAt(ctx context.Context, nodes []replication.NodeID, id replication.EntryID, off int, dst []byte) error {
	raw, ok := p.rawLen(id)
	if !ok {
		return fmt.Errorf("%w: entry %d: no stripe record", replication.ErrNoReplica, id)
	}
	n := len(dst)
	if off < 0 || off+n > raw {
		return fmt.Errorf("ec: range [%d,%d) exceeds payload %d", off, off+n, raw)
	}
	if n == 0 {
		return nil
	}
	s := p.code.ShardLen(raw)
	if rs, ok := p.store.(replication.RangeStore); ok && len(nodes) == p.code.k+p.code.m {
		pos := off
		for pos < off+n {
			shardOff := pos % s
			run := min(s-shardOff, off+n-pos)
			if rs.GetAtInto(ctx, nodes[pos/s], id, shardOff, dst[pos-off:pos-off+run]) != nil {
				break
			}
			pos += run
		}
		if pos == off+n {
			return nil
		}
	}
	// Degraded range read: assemble the whole stripe in scratch, then slice.
	whole := bufpool.Get(raw)
	defer bufpool.Put(whole)
	if _, _, err := p.Read(ctx, nodes, id, whole); err != nil {
		return err
	}
	copy(dst, whole[off:])
	return nil
}

// Delete implements replication.Policy: release every shard; the first
// failure is reported after all positions were attempted.
func (p *CodingPolicy) Delete(ctx context.Context, nodes []replication.NodeID, id replication.EntryID) error {
	errs := p.fanout(ctx, len(nodes), func(ctx context.Context, i int) error {
		return p.store.Delete(ctx, nodes[i], id)
	})
	p.mu.Lock()
	delete(p.stripes, id)
	p.mu.Unlock()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ec: delete shard %d on node %d: %w", i, nodes[i], err)
		}
	}
	return nil
}

// Restore implements replication.Policy: read the surviving shards, rebuild
// the lost positions by reconstruction, and place them on replacements from
// pick. Positions whose placement fails come back in stillLost so the
// maintenance queue retries just those — partial shard repairs no longer
// collapse into a binary repaired/failed verdict.
func (p *CodingPolicy) Restore(ctx context.Context, nodes []replication.NodeID, id replication.EntryID, lost []replication.NodeID, pick replication.PickFunc) ([]replication.NodeID, []replication.NodeID, error) {
	total := p.code.k + p.code.m
	if len(nodes) != total {
		return nodes, nil, fmt.Errorf("ec: got %d nodes, stripe width is %d", len(nodes), total)
	}
	raw, ok := p.rawLen(id)
	if !ok {
		return nodes, nil, fmt.Errorf("ec: entry %d: no stripe record", id)
	}
	lostSet := make(map[replication.NodeID]bool, len(lost))
	for _, l := range lost {
		lostSet[l] = true
	}
	var missingPos []int
	for i, n := range nodes {
		if lostSet[n] {
			missingPos = append(missingPos, i)
		}
	}
	if len(missingPos) == 0 {
		// Already handled by an earlier pass: the queue entry is stale.
		return nodes, nil, nil
	}
	ctx, sp := trace.Start(ctx, "ec.restore")
	sp.Annotate("entry", uint64(id))
	sp.Annotate("missing", len(missingPos))
	defer sp.End()
	p.met.restores.Inc()

	s := p.code.ShardLen(raw)
	shards := make([][]byte, total)
	present := make([]bool, total)
	defer func() {
		for _, b := range shards {
			bufpool.Put(b)
		}
	}()
	got := 0
	var lastErr error
	for i := 0; i < total; i++ {
		shards[i] = bufpool.Get(s)
		if lostSet[nodes[i]] {
			continue
		}
		if err := p.getShard(ctx, nodes[i], id, shards[i]); err != nil {
			lastErr = err
			continue
		}
		present[i] = true
		got++
	}
	if got < p.code.k {
		err := fmt.Errorf("%w: entry %d: %d of %d shards survive: %w", ErrShortShards, id, got, p.code.k, lastErr)
		sp.Annotate("err", err)
		return nodes, nil, err
	}
	if err := p.code.Reconstruct(shards, present); err != nil {
		return nodes, nil, err
	}
	p.met.reconstructs.Add(int64(len(missingPos)))

	// Draw replacements; when the cluster cannot supply one per missing
	// position, restore as many as it can and requeue the rest.
	want := len(missingPos)
	var replacements []replication.NodeID
	var pickErr error
	for want > 0 {
		replacements, pickErr = pick(want, nodes)
		if pickErr == nil {
			break
		}
		want--
	}
	newSet := append([]replication.NodeID(nil), nodes...)
	var still []replication.NodeID
	restored := 0
	for i, pos := range missingPos {
		if i >= len(replacements) {
			still = append(still, nodes[pos])
			continue
		}
		if err := p.putShard(ctx, replacements[i], id, pos, shards[pos]); err != nil {
			if lastErr = err; pickErr == nil {
				pickErr = err
			}
			still = append(still, nodes[pos])
			continue
		}
		newSet[pos] = replacements[i]
		restored++
	}
	if restored == 0 {
		if pickErr == nil {
			pickErr = lastErr
		}
		return nodes, nil, fmt.Errorf("ec: restore of entry %d made no progress: %w", id, pickErr)
	}
	return newSet, still, nil
}
