package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"godm/internal/bufpool"
	"godm/internal/replication"
	"godm/internal/trace"
	"godm/internal/transport"
)

// Entry is one key/payload pair moved by the batch data plane.
type Entry struct {
	Key  uint64
	Data []byte
}

// scratch is one batch call's bookkeeping — PutAll's requests, payloads,
// handles and offsets, put's gather vector, a read's handles, block refs and
// spans, a delete's block list — drawn from scratchPool and returned when the
// call ends. Each slice keeps its capacity across calls, sized for a window
// the first time and grown beyond it when a larger batch needs it, so a
// steady window loop allocates none of it. The stack would not do: the slices
// pass through transport.Verbs interface calls and escape.
type scratch struct {
	reqs     []putEntry
	payloads [][]byte
	handles  []clientHandle
	offsets  []int64
	vec      [][]byte
	blocks   []block
	refs     []blockRef
	spans    [][]blockRef
}

// scratchWindow is the batch size scratch is first sized for.
const scratchWindow = 64

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns s to the pool, dropping its references to payload memory.
func (s *scratch) release() {
	clear(s.payloads[:cap(s.payloads)])
	clear(s.vec[:cap(s.vec)])
	clear(s.spans[:cap(s.spans)])
	scratchPool.Put(s)
}

// sized reslices *b to n, reallocating only when its capacity is short, and
// returns it. The contents are stale: the caller overwrites all n.
func sized[T any](b *[]T, n int) []T {
	if cap(*b) < n {
		*b = make([]T, n, max(n, scratchWindow))
	}
	*b = (*b)[:n]
	return *b
}

// blockRef locates one entry's block for span coalescing: idx indexes the
// caller's slice, payloadLen is the meaningful byte count (storedLen), class
// the block stride.
type blockRef struct {
	idx        int
	off        int64
	class      int
	payloadLen int
}

// coalesceSpans sorts refs by offset and appends to spans the maximal runs
// where each block starts exactly at the previous block's end
// (off == prev.off + prev.class) — the layout the donor's run allocation
// gives the entries of one size class of a put — capping each span's wire
// size at transport.MaxFrameSize. Each span becomes one one-sided read
// instead of len(span) reads.
func coalesceSpans(refs []blockRef, spans [][]blockRef) [][]blockRef {
	slices.SortFunc(refs, func(a, b blockRef) int { return cmp.Compare(a.off, b.off) })
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) {
			prev := refs[j-1]
			size := refs[j].off + int64(refs[j].payloadLen) - refs[i].off
			if refs[j].off != prev.off+int64(prev.class) || size > int64(transport.MaxFrameSize) {
				break
			}
			j++
		}
		spans = append(spans, refs[i:j])
		i = j
	}
	return spans
}

// PutAll parks a window of entries in node's receive pool in one put round
// trip: every block is taken all-or-nothing, the payloads ride the call as a
// gather list, and the blocks the window displaces are freed by the same
// message (§IV.H window-based batching). A window too large for one frame is
// sent as frame-sized sub-batches.
//
// The donor parks the entries of each size class as one contiguous run of its
// region, in the order given, so GetAll/GetAllInto of the same keys is one
// one-sided read per class. It pieces a run together from smaller ones — one
// more read each — only when its pool is too full to hold the run whole, when
// a class's entries outnumber the blocks of one slab, or when the window went
// out as several sub-batches.
//
// The batch is atomic: on any failure every block parked for it is released
// and no handle changes, so previously parked versions of the keys remain
// readable — displaced blocks ride only the last sub-batch, the one whose
// success commits the window. Keys must be unique within one call.
func (c *Client) PutAll(ctx context.Context, node transport.NodeID, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	if len(entries) > maxBatchEntries {
		return fmt.Errorf("core: batch of %d entries exceeds %d", len(entries), maxBatchEntries)
	}
	// Duplicates show up as neighbours in a sorted copy of the keys — a
	// window's worth lives on the stack — so the usual batch costs no map.
	var few [64]uint64
	keys := few[:0]
	for _, e := range entries {
		keys = append(keys, e.Key)
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return fmt.Errorf("core: duplicate key %d in batch", keys[i])
		}
	}
	ctx, sp := trace.Start(ctx, "client.put_all")
	sp.AnnotateInt("entries", len(entries))
	defer sp.End()

	s := getScratch()
	defer s.release()
	reqs, payloads := sized(&s.reqs, len(entries)), sized(&s.payloads, len(entries))
	handles, offsets := sized(&s.handles, len(entries)), sized(&s.offsets, len(entries))
	stage := c.newStage(entries...)
	defer bufpool.Put(stage)
	for i, e := range entries {
		payload, class, flags := c.encodeEntry(&stage, e.Data)
		payloads[i] = payload
		reqs[i] = putEntry{Key: e.Key, Class: int32(class), Len: int32(len(payload))}
		handles[i] = clientHandle{class: class, storedLen: len(payload), rawLen: len(e.Data), flags: flags}
	}
	// Displaced blocks at home on node ride the put; ones that followed a
	// drain elsewhere are released after the commit.
	riding := s.blocks[:0]
	var away []block
	c.mu.Lock()
	for _, e := range entries {
		ck := clientKey{node: node, key: e.Key}
		old, ok := c.handles[ck]
		if !ok {
			continue
		}
		if b := old.block(ck); b.node == node {
			riding = append(riding, b)
		} else {
			away = append(away, b)
		}
	}
	c.mu.Unlock()
	s.blocks = riding

	// Every sub-batch leaves room for the whole window's header, so the split
	// depends on payload bytes alone.
	budget := transport.MaxFrameSize - putHeaderBytes - len(entries)*(putEntryBytes+releaseEntryBytes)
	for lo := 0; lo < len(entries); {
		hi, size := lo, 0
		for hi < len(entries) && (hi == lo || size+len(payloads[hi]) <= budget) {
			size += len(payloads[hi])
			hi++
		}
		var old []block
		if hi == len(entries) {
			old = riding
		}
		if err := put(ctx, c.ep, node, 0, replication.Shard{}, reqs[lo:hi], payloads[lo:hi], old, offsets[lo:hi]); err != nil {
			// Best-effort, on a detached context (the failure may be the
			// caller's context dying); eviction is the backstop.
			parked := make([]block, lo)
			for i := range parked {
				parked[i] = block{node: node, key: reqs[i].Key, offset: offsets[i]}
			}
			fctx, cancel := replication.Detached(ctx)
			_ = release(fctx, c.ep, parked...)
			cancel()
			c.doubt(node, err, old)
			return err
		}
		lo = hi
	}

	c.mu.Lock()
	for i, e := range entries {
		handles[i].offset = offsets[i]
		c.handles[clientKey{node: node, key: e.Key}] = handles[i]
	}
	c.mu.Unlock()
	// Best-effort: a failure strands the old blocks only until the host
	// evicts them.
	_ = release(ctx, c.ep, away...)
	return nil
}

// handlesOf fills handles, which holds len(keys), with the handles behind
// keys on node.
func (c *Client) handlesOf(node transport.NodeID, keys []uint64, handles []clientHandle) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, k := range keys {
		h, ok := c.handles[clientKey{node: node, key: k}]
		if !ok {
			return fmt.Errorf("core: no handle for key %d on node %d", k, node)
		}
		handles[i] = h
	}
	return nil
}

// GetAll reads back a batch of entries parked on node: GetAllInto fresh
// buffers, which the caller owns (they are views of one allocation). Every
// key must have been parked through this client.
func (c *Client) GetAll(ctx context.Context, node transport.NodeID, keys []uint64) (map[uint64][]byte, error) {
	s := getScratch()
	defer s.release()
	if err := c.handlesOf(node, keys, sized(&s.handles, len(keys))); err != nil {
		return nil, err
	}
	total := 0
	for _, h := range s.handles {
		total += h.rawLen
	}
	backing := make([]byte, total)
	dsts := make([][]byte, len(keys))
	for i, h := range s.handles {
		dsts[i], backing = backing[:h.rawLen:h.rawLen], backing[h.rawLen:]
	}
	if err := c.getAllInto(ctx, s, node, keys, dsts); err != nil {
		return nil, err
	}
	out := make(map[uint64][]byte, len(keys))
	for i, k := range keys {
		out[k] = dsts[i]
	}
	return out, nil
}

// GetAllInto reads back a batch of entries parked on node into caller-owned
// buffers: dsts[i] receives the entry parked under keys[i] and must hold at
// least its decoded length; on return dsts[i] is resliced to exactly that
// length. Handles whose blocks sit contiguously in the remote region are
// coalesced into single one-sided span reads (the PBS-style batched
// read-ahead of §IV.H), so a window parked by one PutAll comes back in one
// transfer per size class in it — see PutAll for when the donor could not
// park it so; keys gathered from several puts cost a read per run of
// neighbours. A span holding a single uncompressed entry scatters from the
// fabric straight into the caller's buffer; multi-entry spans stage one
// pooled buffer per span (the span read is one contiguous transfer —
// splitting it across destination buffers requires one copy), and compressed
// entries decode into dsts[i] from pooled staging. The span bookkeeping is
// pooled scratch: a steady state allocates nothing.
func (c *Client) GetAllInto(ctx context.Context, node transport.NodeID, keys []uint64, dsts [][]byte) error {
	if len(keys) != len(dsts) {
		return fmt.Errorf("core: %d keys but %d destination buffers", len(keys), len(dsts))
	}
	s := getScratch()
	defer s.release()
	if err := c.handlesOf(node, keys, sized(&s.handles, len(keys))); err != nil {
		return err
	}
	for i, h := range s.handles {
		if len(dsts[i]) < h.rawLen {
			return fmt.Errorf("core: dst for key %d holds %d bytes, entry is %d", keys[i], len(dsts[i]), h.rawLen)
		}
	}
	return c.getAllInto(ctx, s, node, keys, dsts)
}

// getAllInto is the one batch read: the entry behind s.handles[i] lands in
// dsts[i], which holds its decoded length. Only blocks still where they were
// put are span-coalesced. A handle that followed a drain to another home
// names an offset in that node's region, and a doubted one may name a block
// that is no longer the key's: those go one at a time through GetInto, which
// settles, reads from the recorded home and chases further redirects.
func (c *Client) getAllInto(ctx context.Context, s *scratch, node transport.NodeID, keys []uint64, dsts [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	ctx, sp := trace.Start(ctx, "client.get_all")
	sp.AnnotateInt("entries", len(keys))
	defer sp.End()
	handles := s.handles
	refs := s.refs[:0]
	for i, h := range handles {
		if h.doubted || h.home != 0 {
			n, err := c.GetInto(ctx, node, keys[i], dsts[i])
			if err != nil {
				return err
			}
			dsts[i] = dsts[i][:n]
			continue
		}
		refs = append(refs, blockRef{idx: i, off: h.offset, class: h.class, payloadLen: h.storedLen})
	}
	s.refs = refs
	s.spans = coalesceSpans(refs, s.spans[:0])
	sp.AnnotateInt("spans", len(s.spans))
	for _, span := range s.spans {
		if len(span) == 1 && handles[span[0].idx].flags&flagCompressed == 0 {
			i := span[0].idx
			n, err := c.getInto(ctx, node, handles[i], dsts[i])
			if err != nil {
				return err
			}
			dsts[i] = dsts[i][:n]
			continue
		}
		first := span[0].off
		last := span[len(span)-1]
		buf := bufpool.Get(int(last.off + int64(last.payloadLen) - first))
		if err := transport.ReadRegionInto(ctx, c.ep, node, RecvRegionID, first, buf); err != nil {
			bufpool.Put(buf)
			return fmt.Errorf("core: batch read from node %d: %w", node, err)
		}
		for _, r := range span {
			rel := r.off - first
			h := handles[r.idx]
			if err := decodeEntryInto(dsts[r.idx][:h.rawLen], buf[rel:rel+int64(r.payloadLen)], h); err != nil {
				bufpool.Put(buf)
				return err
			}
			dsts[r.idx] = dsts[r.idx][:h.rawLen]
		}
		bufpool.Put(buf)
	}
	return nil
}

// DeleteAll releases a batch of entries put to node in one control-plane
// round trip per hosting node (more than one only after a followed
// decommission redirect). Keys without a handle are skipped, like Delete.
func (c *Client) DeleteAll(ctx context.Context, node transport.NodeID, keys []uint64) error {
	s := getScratch()
	defer s.release()
	blocks := s.blocks[:0]
	c.mu.Lock()
	for _, k := range keys {
		ck := clientKey{node: node, key: k}
		if h, ok := c.handles[ck]; ok {
			blocks = append(blocks, h.block(ck))
			delete(c.handles, ck)
		}
	}
	c.mu.Unlock()
	s.blocks = blocks
	return release(ctx, c.ep, blocks...)
}

// Window is a client-side staging window for writes (§IV.H "window-based
// batching"): entries accumulate until the window holds size of them, its
// flush timer fires, or Flush is called, then the whole window moves to the
// target node as one atomic PutAll batch.
//
// The timer flush runs on a background goroutine with a wall clock; inside
// the discrete-event simulation use explicit Flush calls instead. A timer
// flush that fails keeps the staged entries and surfaces the error on the
// next Put or Flush.
type Window struct {
	c          *Client
	node       transport.NodeID
	size       int
	flushAfter time.Duration

	mu       sync.Mutex
	staged   []Entry
	inflight int
	timer    *time.Timer
	lastErr  error
}

// NewWindow returns a staging window of the given size (entries) toward
// node. flushAfter > 0 arms a timer on the first staged entry that flushes
// whatever is in the window when it fires.
func (c *Client) NewWindow(node transport.NodeID, size int, flushAfter time.Duration) (*Window, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: window size %d must be positive", size)
	}
	return &Window{c: c, node: node, size: size, flushAfter: flushAfter}, nil
}

// Put stages one entry (the data is copied, so the caller may reuse its
// buffer immediately). When the window reaches its configured size it
// flushes synchronously; the returned error is that flush's (or a previous
// timer flush's) outcome.
func (w *Window) Put(ctx context.Context, key uint64, data []byte) error {
	return w.put(ctx, key, data, true)
}

// PutOwned stages one entry without copying: the window takes ownership of
// data. The caller must not modify (or reuse) the slice until the entry has
// been flushed — i.e. until the Put/PutOwned or Flush call that drains it
// returns successfully; with a flushAfter timer, until Len reports it
// drained. The staged slice is also what rides the gather write, so mutating
// it mid-flush would tear the bytes on the wire. Use Put when in doubt; use
// PutOwned when the producer already hands over dedicated buffers and the
// defensive copy is pure overhead.
func (w *Window) PutOwned(ctx context.Context, key uint64, data []byte) error {
	return w.put(ctx, key, data, false)
}

func (w *Window) put(ctx context.Context, key uint64, data []byte, copyData bool) error {
	w.mu.Lock()
	if err := w.lastErr; err != nil {
		w.lastErr = nil
		w.mu.Unlock()
		return err
	}
	if copyData {
		data = append([]byte(nil), data...)
	}
	w.staged = append(w.staged, Entry{Key: key, Data: data})
	if len(w.staged) >= w.size {
		return w.flushLocked(ctx)
	}
	if w.flushAfter > 0 && w.timer == nil {
		w.timer = time.AfterFunc(w.flushAfter, func() {
			w.mu.Lock()
			if err := w.flushLocked(context.Background()); err != nil {
				w.mu.Lock()
				w.lastErr = err
				w.mu.Unlock()
			}
		})
	}
	w.mu.Unlock()
	return nil
}

// Len reports the number of entries not yet parked remotely: staged plus
// mid-flush. Zero means every Put so far has landed (a failed flush re-stages
// its batch, so failures keep Len nonzero until retried).
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.staged) + w.inflight
}

// Flush sends every staged entry now, as one atomic batch. On failure the
// entries stay staged (PutAll released its reservations), so a retry is
// safe.
func (w *Window) Flush(ctx context.Context) error {
	w.mu.Lock()
	if err := w.lastErr; err != nil {
		w.lastErr = nil
		w.mu.Unlock()
		return err
	}
	return w.flushLocked(ctx)
}

// flushLocked is called with w.mu held and releases it.
func (w *Window) flushLocked(ctx context.Context) error {
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	batch := w.staged
	w.staged = nil
	w.inflight += len(batch)
	w.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	err := w.c.PutAll(ctx, w.node, batch)
	w.mu.Lock()
	w.inflight -= len(batch)
	if err != nil {
		w.staged = append(batch, w.staged...)
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()
	return nil
}

// Close flushes any staged entries and stops the flush timer.
func (w *Window) Close(ctx context.Context) error {
	return w.Flush(ctx)
}
