package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"godm/internal/compress"
	"godm/internal/core"
	"godm/internal/metrics"
	"godm/internal/pagetable"
	"godm/internal/transport"
)

// counters is the snapshot of every public counter the traced pass reports
// as a delta.
type counters struct {
	tx, rx, served                 int64
	writes, failovers              int64
	aborts, rollbacks              int64
	hedged, degraded               int64
	registrations, deregistrations int64
}

// tcpBase is what the four tcpnet workloads share: the rig, the counter
// baselines and the per-layer figures read from public registries.
type tcpBase struct {
	cfg        runConfig
	durability string
	withRTT    bool
	entryBytes int

	g    *rig
	tr   *tracer
	base counters

	samplerStop chan struct{}
	samplerDone sync.WaitGroup
	inflightMax int64
}

func (b *tcpBase) clients() int { return loadClients() }
func (b *tcpBase) verbs() bool  { return true }

func (b *tcpBase) buildRig(tr *tracer) error {
	g, err := newRig(b.durability, b.withRTT, tr)
	if err != nil {
		return err
	}
	b.g, b.tr = g, tr
	return nil
}

func (b *tcpBase) teardown() {
	if b.g != nil {
		b.g.close()
	}
}

func counter(reg *metrics.Registry, name string) int64 {
	if reg == nil {
		return 0
	}
	return reg.Counter(name).Value()
}

func (b *tcpBase) snapshot() counters {
	owner := b.g.owner()
	c := counters{
		tx:        counter(b.g.eps[0].Metrics(), "bytes_tx"),
		rx:        counter(b.g.eps[0].Metrics(), "bytes_rx"),
		writes:    counter(owner.ReplicationMetrics(), "writes") + counter(owner.CodingMetrics(), "writes"),
		failovers: counter(owner.ReplicationMetrics(), "read_failovers"),
		aborts:    counter(owner.ReplicationMetrics(), "write_aborts") + counter(owner.CodingMetrics(), "write_aborts"),
		rollbacks: counter(owner.ReplicationMetrics(), "rollbacks"),
		hedged:    counter(owner.CodingMetrics(), "hedged_reads"),
		degraded:  counter(owner.CodingMetrics(), "degraded_reads"),
	}
	for i, n := range b.g.donors() {
		c.served += counter(b.g.eps[i+1].Metrics(), "requests_served")
		st := n.RecvPool().Stats()
		c.registrations += st.Registrations
		c.deregistrations += st.Deregistrations
	}
	return c
}

// begin takes the counter baselines and, when tracing, starts sampling the
// owner endpoint's in-flight gauge (a gauge has no history of its own).
func (b *tcpBase) begin() {
	b.base = b.snapshot()
	if b.tr == nil {
		return
	}
	b.samplerStop = make(chan struct{})
	gauge := b.g.eps[0].Metrics().Gauge("rpc_inflight")
	b.samplerDone.Add(1)
	go func() {
		defer b.samplerDone.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-b.samplerStop:
				return
			case <-tick.C:
				if v := gauge.Value(); v > b.inflightMax {
					b.inflightMax = v
				}
			}
		}
	}()
}

// finishLayers fills the per-layer metrics every tcpnet workload reports.
// liveUser is the user bytes parked at the end of the run.
func (b *tcpBase) finishLayers(res *result, t totals, liveUser int64) {
	live, blocks := b.g.donorLive()
	if liveUser > 0 {
		res.set("slab.stored_bytes_per_user_byte", float64(live)/float64(liveUser))
	}
	if b.tr == nil {
		return
	}
	close(b.samplerStop)
	b.samplerDone.Wait()
	d := b.snapshot()
	ops, userBytes := float64(t.ops), float64(t.ops)*float64(b.entryBytes)
	if t.ops == 0 {
		return
	}
	res.set("tcpnet.bytes_tx_per_user_byte", float64(d.tx-b.base.tx)/userBytes)
	res.set("tcpnet.bytes_rx_per_user_byte", float64(d.rx-b.base.rx)/userBytes)
	res.set("tcpnet.requests_per_op", float64(d.served-b.base.served)/ops)
	res.set("tcpnet.inflight_max", float64(b.inflightMax))
	if t.puts > 0 {
		res.set("replication.writes_per_put", float64(d.writes-b.base.writes)/float64(t.puts))
	}
	if t.gets > 0 {
		res.set("replication.read_failovers_per_get", float64(d.failovers-b.base.failovers)/float64(t.gets))
		res.set("ec.hedged_reads_per_get", float64(d.hedged-b.base.hedged)/float64(t.gets))
		res.set("ec.degraded_reads_per_get", float64(d.degraded-b.base.degraded)/float64(t.gets))
	}
	res.set("replication.write_aborts", float64(d.aborts-b.base.aborts))
	res.set("replication.rollbacks", float64(d.rollbacks-b.base.rollbacks))
	res.set("slab.registrations", float64(d.registrations-b.base.registrations))
	res.set("slab.deregistrations", float64(d.deregistrations-b.base.deregistrations))
	res.set("slab.live_blocks_end", float64(blocks))

	tr := b.tr
	tr.mu.Lock()
	for k, name := range []string{"call", "write", "read"} {
		if len(tr.inner[k]) > 0 {
			res.set("tcpnet.verb_us_"+name+"_p50", median(tr.inner[k]))
		}
	}
	var callMean float64
	if n := len(tr.inner[verbCall]); n > 0 {
		for _, v := range tr.inner[verbCall] {
			callMean += v
		}
		callMean /= float64(n)
	}
	if tr.outerN > 0 {
		res.set("faulty.delay_us_per_verb", float64(tr.outerSum-tr.innerSum)/1e3/float64(tr.outerN))
	}
	tr.mu.Unlock()
	if calls := tr.handlerCalls.Load(); calls > 0 {
		handlerUs := float64(tr.handlerNs.Load()) / 1e3
		// Handler time was only collected in traced windows, ops in all of
		// them; scale by the traced share of calls instead of guessing it.
		res.set("core.handler_us_per_op", handlerUs/float64(calls)*float64(d.served-b.base.served)/ops)
		res.set("core.handler_calls_per_op", float64(d.served-b.base.served)/ops)
		if callMean > 0 {
			res.set("tcpnet.wire_us_per_call", callMean-handlerUs/float64(calls))
		}
	}
	runProbes(res, b)
}

// checkLive compares what the donors hold with what the run left parked.
func (b *tcpBase) checkLive(res *result, wantBytes int64) {
	if got, _ := b.g.donorLive(); got != wantBytes {
		res.problem("donors hold %d live bytes, expected %d", got, wantBytes)
	}
}

// --- get4k-loop -----------------------------------------------------------

type get4k struct {
	tcpBase
	ids int
	vs  []*core.VirtualServer
}

func newGet4k(cfg runConfig) *get4k {
	w := &get4k{tcpBase: tcpBase{cfg: cfg, durability: "rf3", entryBytes: 4096}, ids: 4096}
	if cfg.Quick {
		w.ids = 256
	}
	return w
}

func entryKey(client, id int) uint64 { return uint64(client)<<32 | uint64(id) }

// populate parks ids entries per client, the clients in parallel.
func populate(vs []*core.VirtualServer, ids, size int, seed int64) error {
	errs := make([]error, len(vs))
	var wg sync.WaitGroup
	for i := range vs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, size)
			for id := 0; id < ids; id++ {
				buf = reuse(buf)
				fillPayload(buf, payloadSeed(seed, entryKey(i, id), 0))
				if err := vs[i].PutRemote(context.Background(), pagetable.EntryID(id), buf, size, size); err != nil {
					errs[i] = fmt.Errorf("populate client %d id %d: %w", i, id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func addServers(owner *core.Node, n int) ([]*core.VirtualServer, error) {
	vs := make([]*core.VirtualServer, n)
	for i := range vs {
		v, err := owner.AddServer(fmt.Sprintf("client-%d", i), 0)
		if err != nil {
			return nil, err
		}
		vs[i] = v
	}
	return vs, nil
}

func (w *get4k) setup(tr *tracer) error {
	if err := w.buildRig(tr); err != nil {
		return err
	}
	vs, err := addServers(w.g.owner(), w.clients())
	if err != nil {
		return err
	}
	w.vs = vs
	return populate(vs, w.ids, w.entryBytes, w.cfg.Seed)
}

func (w *get4k) loop(c *client) {
	vs := w.vs[c.idx]
	for c.running() {
		id := c.rng.intn(w.ids)
		key := entryKey(c.idx, id)
		c.seq.note('g', key, 0)
		var data []byte
		ok := c.timed(opGet, 1, func(ctx context.Context) (err error) {
			data, _, err = vs.Get(ctx, pagetable.EntryID(id))
			return err
		})
		if ok && !checkPayload(data, payloadSeed(w.cfg.Seed, key, 0)) {
			c.wrong(1)
		}
	}
}

func (w *get4k) finish(res *result, t totals) {
	entries := int64(w.clients() * w.ids)
	w.checkLive(res, entries*3*int64(w.entryBytes))
	w.finishLayers(res, t, entries*int64(w.entryBytes))
}

// --- rw64k-rtt-rf3 / rw64k-rtt-rs42 ---------------------------------------

type rw64k struct {
	tcpBase
	ids      int
	vs       []*core.VirtualServer
	versions [][]uint64 // [client][id] current version of each entry
}

func newRW64k(cfg runConfig, durability string) *rw64k {
	w := &rw64k{tcpBase: tcpBase{cfg: cfg, durability: durability, withRTT: true, entryBytes: 64 << 10}, ids: 256}
	if cfg.Quick {
		w.ids = 32
	}
	return w
}

func (w *rw64k) setup(tr *tracer) error {
	if err := w.buildRig(tr); err != nil {
		return err
	}
	vs, err := addServers(w.g.owner(), w.clients())
	if err != nil {
		return err
	}
	w.vs = vs
	w.versions = make([][]uint64, len(vs))
	for i := range w.versions {
		w.versions[i] = make([]uint64, w.ids)
	}
	if err := populate(vs, w.ids, w.entryBytes, w.cfg.Seed); err != nil {
		return err
	}
	w.g.armRTT() // after pre-population, so setup_s stays small
	return nil
}

func (w *rw64k) loop(c *client) {
	vs := w.vs[c.idx]
	versions := w.versions[c.idx]
	buf := make([]byte, w.entryBytes)
	// rf3 replaces by Delete then PutRemote: an in-place PutRemote loses
	// copies when the new donor set overlaps the old one (see the overwrite
	// probe). rs4.2 releases the old stripe itself, so it overwrites in place.
	deleteFirst := w.durability == "rf3"
	for c.running() {
		id := c.rng.intn(w.ids)
		key := entryKey(c.idx, id)
		eid := pagetable.EntryID(id)
		if c.rng.next()&1 == 0 {
			c.seq.note('g', key, versions[id])
			var data []byte
			ok := c.timed(opGet, 1, func(ctx context.Context) (err error) {
				data, _, err = vs.Get(ctx, eid)
				return err
			})
			if ok && !checkPayload(data, payloadSeed(w.cfg.Seed, key, versions[id])) {
				c.wrong(1)
			}
			continue
		}
		versions[id]++
		c.seq.note('p', key, versions[id])
		buf = reuse(buf)
		fillPayload(buf, payloadSeed(w.cfg.Seed, key, versions[id]))
		c.timed(opPut, 1, func(ctx context.Context) error {
			if deleteFirst {
				if err := vs.Delete(ctx, eid); err != nil {
					return err
				}
			}
			return vs.PutRemote(ctx, eid, buf, w.entryBytes, w.entryBytes)
		})
	}
}

func (w *rw64k) finish(res *result, t totals) {
	entries := int64(w.clients() * w.ids)
	policy := w.g.owner().DurabilityPolicy()
	w.checkLive(res, entries*int64(policy.Width())*int64(policy.ShardClass(w.entryBytes)))
	w.finishLayers(res, t, entries*int64(w.entryBytes))
	if w.tr != nil && w.durability == "rf3" {
		res.set("replication.overwrite_lost_copies", float64(w.overwriteProbe()))
	}
}

// overwriteProbe parks 64 fresh entries, overwrites them in place with
// PutRemote, and counts the replicas their memory map names that can no
// longer serve the new bytes (the donor does not host the key, or the owner
// lost its handle). When the new donor set overlaps the old one,
// VirtualServer.dropOld frees the copies the policy just wrote; the count
// records that, it is not fixed here. The second pass runs in reverse so the
// round-robin balancer's old and new sets meet at every possible offset,
// whatever its position when the probe starts.
func (w *rw64k) overwriteProbe() int {
	const probeIDs = 64
	w.g.inj.SetEnabled(false) // no need to pay the RTT for a count
	ctx := context.Background()
	vs, owner := w.vs[0], w.g.owner()
	buf := make([]byte, w.entryBytes)
	put := func(i int, version uint64) error {
		id := pagetable.EntryID(w.ids + i)
		buf = reuse(buf)
		fillPayload(buf, payloadSeed(w.cfg.Seed, uint64(id), version))
		return vs.PutRemote(ctx, id, buf, w.entryBytes, w.entryBytes)
	}
	lost := 0
	for i := 0; i < probeIDs; i++ {
		if err := put(i, 0); err != nil {
			lost += 3
		}
	}
	for i := probeIDs - 1; i >= 0; i-- {
		if err := put(i, 1); err != nil {
			lost += 3
			continue
		}
		id := pagetable.EntryID(w.ids + i)
		loc, err := vs.Location(id)
		if err != nil {
			lost += 3
			continue
		}
		want := payloadSeed(w.cfg.Seed, uint64(id), 1)
		for _, h := range append([]pagetable.NodeID{loc.Primary}, loc.Replicas...) {
			node := transport.NodeID(h)
			data, err := vs.ReadFrom(ctx, id, node)
			if err != nil || !checkPayload(data, want) || !w.g.nodes[int(node)-1].HostsRemoteKey(owner.ID(), vs.WireKey(id)) {
				lost++
			}
		}
	}
	return lost
}

// --- window4k-loop --------------------------------------------------------

const (
	windowEntries = 64 // pages per PutAll window
	readLag       = 8  // a window is read back this many rounds after it was written
	deleteLag     = 16 // and released this many rounds after
	pagePool      = 256
	pageHeader    = 16 // key + page-pool pick, stamped over the page's first bytes
)

type window4k struct {
	tcpBase
	donor   transport.NodeID
	pages   [][]byte // compressible pages the entries are drawn from
	cl      []*core.Client
	rounds  []int // next round per client
	putFail []bool
}

func newWindow4k(cfg runConfig) *window4k {
	return &window4k{tcpBase: tcpBase{cfg: cfg, durability: "rf3", entryBytes: 4096}, donor: 2}
}

func windowKey(client, round, j int) uint64 {
	return uint64(client)<<40 | uint64(round)<<8 | uint64(j)
}

// stamp copies the page (seed, key) selects into dst and marks it with the
// key, so every entry is distinct and a read can be checked without keeping
// what was written.
func (w *window4k) stamp(dst []byte, key uint64) {
	pick := splitmix64(uint64(w.cfg.Seed) ^ key)
	copy(dst, w.pages[pick%pagePool])
	binary.LittleEndian.PutUint64(dst, key)
	binary.LittleEndian.PutUint64(dst[8:], pick)
}

func (w *window4k) check(got []byte, key uint64) bool {
	pick := splitmix64(uint64(w.cfg.Seed) ^ key)
	return len(got) == w.entryBytes &&
		binary.LittleEndian.Uint64(got) == key &&
		binary.LittleEndian.Uint64(got[8:]) == pick &&
		bytes.Equal(got[pageHeader:], w.pages[pick%pagePool][pageHeader:])
}

func windowKeys(dst []uint64, client, round int) []uint64 {
	dst = dst[:0]
	for j := 0; j < windowEntries; j++ {
		dst = append(dst, windowKey(client, round, j))
	}
	return dst
}

func (w *window4k) putWindow(ctx context.Context, cl *core.Client, entries []core.Entry, client, round int) error {
	for j := range entries {
		entries[j].Key = windowKey(client, round, j)
		entries[j].Data = reuse(entries[j].Data)
		w.stamp(entries[j].Data, entries[j].Key)
	}
	return cl.PutAll(ctx, w.donor, entries)
}

func newWindowBuffers() ([]core.Entry, [][]byte) {
	entries := make([]core.Entry, windowEntries)
	dsts := make([][]byte, windowEntries)
	for j := range entries {
		entries[j].Data = make([]byte, 4096)
		dsts[j] = make([]byte, 4096)
	}
	return entries, dsts
}

// generatePages draws the page pool: ratio 2.0, the compressibility the
// paper's swap traces centre on.
func (w *window4k) generatePages() [][]byte {
	prng := rand.New(rand.NewSource(w.cfg.Seed))
	pages := make([][]byte, pagePool)
	for i := range pages {
		pages[i] = compress.GeneratePage(prng, 2.0)
	}
	return pages
}

func (w *window4k) setup(tr *tracer) error {
	if err := w.buildRig(tr); err != nil {
		return err
	}
	w.pages = w.generatePages()
	n := w.clients()
	w.rounds = make([]int, n)
	w.putFail = make([]bool, n)
	entries, _ := newWindowBuffers()
	for i := 0; i < n; i++ {
		// Both clients ride the owner's endpoint and converge on one donor.
		cl := core.NewClient(w.g.fabric, core.WithCompression(0))
		w.cl = append(w.cl, cl)
		for r := 0; r < deleteLag; r++ {
			if err := w.putWindow(context.Background(), cl, entries, i, r); err != nil {
				return fmt.Errorf("populate client %d round %d: %w", i, r, err)
			}
		}
		w.rounds[i] = deleteLag
	}
	return nil
}

func (w *window4k) loop(c *client) {
	cl := w.cl[c.idx]
	entries, dsts := newWindowBuffers()
	keys := make([]uint64, 0, windowEntries)
	for c.running() {
		r := w.rounds[c.idx]
		c.seq.note('w', windowKey(c.idx, r, 0), 0)
		if !c.timed(opPut, windowEntries, func(ctx context.Context) error {
			return w.putWindow(ctx, cl, entries, c.idx, r)
		}) {
			w.putFail[c.idx] = true
		}
		keys = windowKeys(keys, c.idx, r-readLag)
		if c.timed(opGet, windowEntries, func(ctx context.Context) error {
			return cl.GetAllInto(ctx, w.donor, keys, dsts)
		}) {
			for j, k := range keys {
				if !w.check(dsts[j], k) {
					c.wrong(1)
				}
			}
		}
		keys = windowKeys(keys, c.idx, r-deleteLag)
		c.timed(opOther, 0, func(ctx context.Context) error {
			return cl.DeleteAll(ctx, w.donor, keys)
		})
		w.rounds[c.idx] = r + 1
	}
}

func (w *window4k) finish(res *result, t totals) {
	n := w.clients()
	liveEntries := int64(n * deleteLag * windowEntries)
	liveBytes, blocks := w.g.donorLive()
	anyFail := false
	for _, f := range w.putFail {
		anyFail = anyFail || f
	}
	if !anyFail && int64(blocks) != liveEntries {
		res.problem("donor holds %d blocks, expected %d", blocks, liveEntries)
	}
	if liveBytes > 0 {
		res.set("compress.stored_ratio", float64(liveEntries*int64(w.entryBytes))/float64(liveBytes))
	}
	w.finishLayers(res, t, liveEntries*int64(w.entryBytes))
	if w.tr != nil {
		probeCompress(res, w)
	}
	// Release what is still parked; nothing may be left behind.
	keys := make([]uint64, 0, windowEntries)
	for i, cl := range w.cl {
		for r := w.rounds[i] - deleteLag; r < w.rounds[i]; r++ {
			keys = windowKeys(keys, i, r)
			if err := cl.DeleteAll(context.Background(), w.donor, keys); err != nil {
				res.problem("final DeleteAll client %d round %d: %v", i, r, err)
			}
		}
	}
	w.checkLive(res, 0)
}
