// Package tcpnet implements transport.Endpoint over real TCP sockets, so a
// disaggregated memory cluster can run as ordinary processes on commodity
// networks. It preserves the verbs semantics of the simulated fabric —
// one-sided region writes/reads execute against pre-registered buffers
// without invoking the application handler — while trading RDMA's kernel
// bypass for portability (the paper's §IV.G notes TCP and RDMA share the
// connected, reliable, in-order model).
//
// # Wire format
//
// Every request carries a 64-bit request ID that the peer echoes back in the
// matching response, so many RPCs can be in flight on one connection and
// responses may return in any order (all integers big-endian):
//
//	request:  op(1) reqID(8) from(8) region(4) offset(8) n(4) payloadLen(4) payload
//	response: reqID(8) status(1) payloadLen(4) payload
//
// Payloads above 64 MiB are rejected on the send side with ErrFrameTooLarge
// before a byte hits the wire; a receiver treats an oversized length prefix
// as a protocol violation and drops the connection.
//
// # Concurrency model
//
// Like an RDMA reliable connection with many outstanding verbs, each pooled
// connection is split into a send side and a single demultiplexing reader
// goroutine that routes responses to per-request channels. Unlimited RPCs to
// the same peer proceed concurrently; none waits for another's round trip.
// Because a single connection's frame-processing loops are themselves
// serial, each peer gets a small stripe of such connections ("lanes", like a
// pool of RC queue pairs; min(maxLanes, GOMAXPROCS) of them) and requests
// round-robin across them.
//
// Both directions of every connection write through one frameWriter: a
// client connection's requests and a served connection's responses alike.
// Queueing a frame holds the writer's mutex only while its iovecs are
// appended, and flush syscalls are coalesced: a per-connection flusher
// goroutine pushes everything the current burst of runnable queuers queued
// out in one syscall (doorbell batching, in RDMA terms).
//
// On the serving side, one-sided opWrite/opRead frames are executed inline
// in the connection's read loop — so one-sided operations on a connection
// execute in exactly the order they were sent, mirroring RC QP ordering —
// and their responses are flushed by the read loop once the burst of
// buffered requests drains. Two-sided opCall frames go over a channel to the
// endpoint's call workers: persistent goroutines, started when none is idle
// up to an endpoint-wide cap (callConcurrency) and kept until Close, so a call
// costs no goroutine of its own. A read loop that finds every worker busy
// waits for one (backpressure: it stops reading the connection). Calls whose
// issuer did not wait for a prior completion may be handled concurrently,
// exactly as multiple outstanding SENDs would. Registered regions are
// guarded by an RWMutex so one-sided operations from many connections
// proceed in parallel. As with real RDMA, concurrently accessing overlapping
// bytes of one region is the application's race to avoid.
//
// A verb addressed to the endpoint's own ID takes the same path: with no
// peer entry for itself the endpoint dials its own listener, and the verb is
// served like any other.
//
// Broken pooled connections are redialled with exponential backoff instead
// of failing the caller, and every verb honors its context: cancellation or
// deadline expiry abandons the wait immediately (the late response, if any,
// is discarded by the demux reader). A retry is only ever attempted when the
// request frame provably never fully reached the socket: the writer counts
// every byte handed to the kernel and records each frame's end offset in the
// outbound stream, so a frame is re-sent only if the connection died before
// all of its bytes were written — operations are never duplicated on the
// peer by the transport itself.
//
// # Zero-copy data plane
//
// Outbound frames are never assembled into a contiguous staging buffer. A
// frame is queued as an iovec list — a recycled header block plus the
// payload slices, unmodified — and the flusher hands the whole burst to the
// kernel with one vectored write (net.Buffers, i.e. writev on a TCP socket).
// CallV extends this to gather calls: the slices reach the peer's handler as
// one payload without the client ever concatenating them. Inbound, the demux
// reader is length-aware: a response whose round trip registered a
// destination buffer (ReadRegionInto) is scattered straight into it with
// io.ReadFull, and every other payload — call answers included — comes from
// the shared size-classed pool (internal/bufpool) rather than a per-response
// make. The ownership rules are bufpool's: pooled buffers handed to callers
// become owned; owners that retain them simply strand one pooled buffer. In
// the other direction a handler's answer is handed to the transport, which
// releases it, with the request payload, after the flush that writes it.
package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"godm/internal/bufpool"
	"godm/internal/metrics"
	"godm/internal/transport"
)

const (
	opWrite = 1
	opRead  = 2
	opCall  = 3
)

const (
	statusOK          = 0
	statusNoRegion    = 1
	statusOutOfBounds = 2
	statusNoHandler   = 3
	statusAppError    = 4
)

const (
	reqHeaderSize  = 37
	respHeaderSize = 13
)

// maxPayload bounds a single frame (transport.MaxFrameSize, 64 MiB) to keep
// a malformed peer from forcing huge allocations. The bound is shared with
// the simulated fabric so the two cannot drift on the contract.
const maxPayload = transport.MaxFrameSize

// ErrFrameTooLarge is returned before anything is written to the wire when a
// single operation's payload exceeds the 64 MiB frame limit. Callers should
// split such transfers into smaller operations.
var ErrFrameTooLarge = transport.ErrFrameTooLarge

// callConcurrency is the endpoint-wide cap on concurrently executing
// control-plane handlers.
const callConcurrency = 32

// maxLanes caps the striped connections ("lanes") kept per peer, like a
// small pool of RC queue pairs to one remote NIC. An endpoint keeps
// min(maxLanes, GOMAXPROCS): extra lanes only pay off when their
// frame-processing loops can run in parallel.
const maxLanes = 8

const (
	// retryAttempts bounds how many times an operation is retried when its
	// request could not be sent (dead pooled connection, dial failure).
	retryAttempts = 3
	// retryBackoff is the base delay between attempts; it doubles each time.
	retryBackoff = 20 * time.Millisecond
)

// Option configures an Endpoint at Listen time.
type Option func(*Endpoint)

// WithMetrics mounts the endpoint's instrumentation on reg instead of a
// free-floating per-node registry, so a daemon can hang transport metrics
// under its unified metrics tree.
func WithMetrics(reg *metrics.Registry) Option {
	return func(e *Endpoint) {
		if reg != nil {
			e.reg = reg
		}
	}
}

// Endpoint is one node's TCP attachment.
type Endpoint struct {
	id       transport.NodeID
	listener net.Listener
	closedCh chan struct{}

	// calls feeds the call workers (see dispatch); workers counts them.
	calls   chan call
	workers atomic.Int32

	// baseCtx is the server-side request context handed to inbound
	// control-plane handlers; it is cancelled when the endpoint closes.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// regMu guards the server data plane: registered regions and the
	// control-plane handler. One-sided ops take only the read lock, so they
	// no longer serialize on the endpoint's connection-pool mutex.
	regMu   sync.RWMutex
	regions map[transport.RegionID][]byte
	handler transport.Handler

	// mu guards connection-pool and lifecycle state.
	mu      sync.Mutex
	peers   map[transport.NodeID]string
	conns   map[laneKey]*clientConn
	inbound map[net.Conn]struct{}
	closed  bool

	lanes int
	rr    atomic.Uint64

	reg        *metrics.Registry
	inflight   *metrics.Gauge
	rtt        *metrics.Histogram
	bytesTx    *metrics.Counter
	bytesRx    *metrics.Counter
	reconnects *metrics.Counter
	served     *metrics.Counter

	wg sync.WaitGroup
}

var _ transport.Endpoint = (*Endpoint)(nil)

// laneKey names one striped connection to one peer.
type laneKey struct {
	to   transport.NodeID
	lane int
}

// rpcResult is what the demux reader delivers to a waiting round trip.
// retry marks failures where the request provably never fully left this host
// (the connection died before all of its frame's bytes were handed to the
// kernel), so the operation can be re-sent without risking duplicate
// execution on the peer. A payload is drawn from the frame pool; the round
// trip releases it unless ownership passes to the caller.
type rpcResult struct {
	status  byte
	payload []byte
	err     error
	retry   bool
}

// frameRef remembers where one frame ends in the outbound byte stream, so a
// connection failure can tell frames that were fully handed to the kernel
// (possibly delivered and executed — never retried) from frames the socket
// provably never finished accepting (safe to retry: the peer can at most
// have seen a truncated frame, which it discards without executing). bi/bn
// locate the frame's slices in frameWriter.bufs while it is unflushed, so a
// cancelled round trip can detach caller-owned payload memory from the queue
// before returning.
type frameRef struct {
	id     uint64
	end    int64 // stream offset one past the frame's last byte
	bi, bn int   // the frame's slice range in frameWriter.bufs
}

// burstBytes is the queue size past which a flush fires immediately instead
// of yielding for more of the queuers' burst.
const burstBytes = 64 << 10

// errWriterDead is what a dead writer (see frameWriter.dead) answers.
var errWriterDead = errors.New("tcpnet: connection writer failed")

// frameWriter is the outbound half of one connection, in either direction.
// Frames are queued as iovecs — a recycled header block plus the payload
// slices, referenced and uncopied — and flush hands the whole queue to the
// kernel with one net.Buffers vectored write. mu is held while a frame is
// queued and across the write itself.
//
// Until a flush confirms it, every frame's stream end offset rides in ends;
// because written counts the bytes the kernel has actually accepted (a
// failed writev reports its partial progress), a failure marks exactly the
// frames whose end lies beyond it as never having reached the peer intact.
type frameWriter struct {
	conn  net.Conn
	dirty chan struct{} // cap 1: queued frames await the flusher
	done  chan struct{} // closed once by the connection's owner: loop flushes and returns

	mu       sync.Mutex
	bufs     net.Buffers            // queued iovecs, in frame order
	wto      net.Buffers            // WriteTo staging (see flush)
	hdrs     []*[reqHeaderSize]byte // header blocks in flight, recycled on flush
	free     []*[reqHeaderSize]byte // header block freelist
	release  [][]byte               // pooled buffers released after flush
	ends     []frameRef             // frames not yet confirmed flushed
	raceCopy []byte                 // race builds only: see flush
	queued   int64                  // bytes in bufs
	written  int64                  // bytes the kernel has accepted since dial
	dead     bool                   // a flush failed or the connection was failed
}

func newFrameWriter(conn net.Conn) *frameWriter {
	return &frameWriter{conn: conn, dirty: make(chan struct{}, 1), done: make(chan struct{})}
}

// queue appends one frame: hdr, encoded by the caller and copied into a
// recycled header block, then payload and extra by reference. release lists
// the pooled buffers the frame depends on, handed back to the pool by the
// flush that gives the frame to the kernel (or at once, if the writer is
// dead). kick wakes the flusher; without it the frame waits for the owner's
// next flush.
func (w *frameWriter) queue(id uint64, hdr, payload []byte, extra [][]byte, kick bool, release ...[]byte) error {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		for _, b := range release {
			putBuf(b)
		}
		return errWriterDead
	}
	var blk *[reqHeaderSize]byte
	if n := len(w.free); n > 0 {
		blk = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		blk = new([reqHeaderSize]byte)
	}
	w.hdrs = append(w.hdrs, blk)
	bi := len(w.bufs)
	size := copy(blk[:], hdr)
	w.bufs = append(w.bufs, blk[:size])
	if len(payload) > 0 {
		w.bufs = append(w.bufs, payload)
		size += len(payload)
	}
	for _, b := range extra {
		if len(b) > 0 {
			w.bufs = append(w.bufs, b)
			size += len(b)
		}
	}
	for _, b := range release {
		if cap(b) > 0 {
			w.release = append(w.release, b)
		}
	}
	w.queued += int64(size)
	w.ends = append(w.ends, frameRef{id: id, end: w.written + w.queued, bi: bi, bn: len(w.bufs) - bi})
	w.mu.Unlock()
	if kick {
		select {
		case w.dirty <- struct{}{}:
		default: // a flush is already scheduled
		}
	}
	return nil
}

// flush hands every queued iovec to the kernel in one vectored write. On
// success the queue is reset with its backing storage retained, header
// blocks return to the freelist and the frame-end records are dropped. On
// failure the writer is dead and the frame-end records stay for failConn,
// which compares them with written. Either way the pooled buffers are
// released: nothing will write them again.
func (w *frameWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return errWriterDead
	}
	if len(w.bufs) == 0 {
		return nil
	}
	var n int64
	var err error
	if raceEnabled {
		// The race detector only annotates the write(2) syscall with the
		// ioSync release that pairs with read(2)'s acquire; the writev path
		// has no annotation, so vectored data sent to an endpoint in this
		// same process would be falsely reported as racing with the peer's
		// reads. Degrade to per-iovec writes when the detector is active —
		// from a copy: the detector logs write(2)'s read of its buffer only
		// once the syscall has returned, after the release, and by then the
		// peer may have answered and the caller be refilling the slice it
		// lent us. The copy's read of it is ordered before the release.
		for _, b := range w.bufs {
			var m int
			w.raceCopy = append(w.raceCopy[:0], b...)
			m, err = w.conn.Write(w.raceCopy)
			n += int64(m)
			if err != nil {
				break
			}
		}
	} else {
		// WriteTo consumes its receiver (and nils out sent entries), so hand
		// it a copy of the slice header and keep ours for backing-array reuse.
		// The copy is staged in the writer, not a local: a local would escape
		// to the heap on every flush through WriteTo's pointer receiver — the
		// last allocation on the steady-state path.
		w.wto = w.bufs
		n, err = w.wto.WriteTo(w.conn)
		w.wto = nil
	}
	w.written += n
	if err != nil {
		w.dead = true
	} else {
		w.bufs = w.bufs[:0]
		w.queued = 0
		w.free = append(w.free, w.hdrs...)
		w.hdrs = w.hdrs[:0]
		w.ends = w.ends[:0]
	}
	for _, b := range w.release {
		putBuf(b)
	}
	w.release = w.release[:0]
	return err
}

// loop is the connection's flusher: a kick waits out the burst of runnable
// queuers and pushes their frames out together in one vectored write. It
// returns the error that ended it, or the last flush's once done is closed.
func (w *frameWriter) loop() error {
	for {
		select {
		case <-w.dirty:
			w.waitForBurst()
			if err := w.flush(); err != nil {
				return err
			}
		case <-w.done:
			return w.flush()
		}
	}
}

// waitForBurst yields the processor until the queue stops growing, so a
// flusher woken by the first queuer of a burst does not fire before the rest
// of the runnable queuers have queued theirs. Bounded: at most a few yields,
// and a queue already past the burst threshold flushes at once.
func (w *frameWriter) waitForBurst() {
	prev := int64(-1)
	for i := 0; i < 4; i++ {
		w.mu.Lock()
		cur := w.queued
		w.mu.Unlock()
		if cur == prev || cur > burstBytes {
			return
		}
		prev = cur
		runtime.Gosched()
	}
}

// fail kills the writer and hands over its frame-end records with the count
// of bytes the kernel accepted.
func (w *frameWriter) fail() ([]frameRef, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dead = true
	refs := w.ends
	w.ends = nil
	return refs, w.written
}

// detach unbinds a cancelled frame's payload iovecs from caller-owned
// memory: each still-queued payload slice is copied into a pooled buffer
// that the flush releases. The caller regains exclusive ownership of its
// buffers the moment detach returns, while the stream keeps its framing (the
// queued header promised payloadLen bytes, so the bytes themselves must
// still go out). The happy path never pays this copy — only a context
// cancellation that outruns the flusher does.
func (w *frameWriter) detach(id uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ref := range w.ends {
		if ref.id != id {
			continue
		}
		for i := ref.bi + 1; i < ref.bi+ref.bn; i++ {
			b := w.bufs[i]
			cp := getBuf(len(b))
			copy(cp, b)
			w.bufs[i] = cp
			w.release = append(w.release, cp)
		}
		return
	}
}

// pendingOp is one in-flight round trip awaiting its response. dst, when
// non-nil, is the caller's destination buffer: the demux reader scatters a
// matching OK payload straight into it. Every other payload is read into a
// buffer from the frame pool.
type pendingOp struct {
	ch  chan rpcResult
	dst []byte
}

// clientConn is one pooled outbound connection: requests go out through w,
// and responses are consumed by a single reader goroutine that routes them
// to pending by request ID.
type clientConn struct {
	w *frameWriter

	pmu     sync.Mutex
	pending map[uint64]pendingOp
	nextID  uint64
	dead    bool
	deadErr error
}

// resultChanPool recycles the buffered per-request response channels.
var resultChanPool = sync.Pool{New: func() any { return make(chan rpcResult, 1) }}

// register allocates a request ID and its response channel. dst, when
// non-nil, is where the demux reader lands this request's response payload.
func (cc *clientConn) register(dst []byte) (uint64, chan rpcResult, error) {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	if cc.dead {
		return 0, nil, cc.deadErr
	}
	cc.nextID++
	id := cc.nextID
	ch := resultChanPool.Get().(chan rpcResult)
	cc.pending[id] = pendingOp{ch: ch, dst: dst}
	return id, ch, nil
}

// cancel abandons a pending request (context fired, or send failed). If the
// entry was already claimed — the reader or failConn owns it and will
// deliver exactly one result — a round trip that lent out a destination
// buffer must wait that result out: returning while the reader may still
// scatter into dst would hand the caller a buffer the transport is about to
// scribble on. Claimed entries without a dst are simply abandoned (the late
// result is dropped on the buffered channel and collected).
func (cc *clientConn) cancel(id uint64, ch chan rpcResult, dst []byte) {
	cc.pmu.Lock()
	_, mine := cc.pending[id]
	if mine {
		delete(cc.pending, id)
	}
	cc.pmu.Unlock()
	if mine {
		resultChanPool.Put(ch)
		return
	}
	if dst != nil {
		res := <-ch
		putBuf(res.payload)
		resultChanPool.Put(ch)
	}
}

// Listen creates an endpoint for node id serving on addr (e.g. ":7400").
// Use Addr to discover the bound address when addr has port 0.
func Listen(id transport.NodeID, addr string, opts ...Option) (*Endpoint, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	e := &Endpoint{
		id:       id,
		listener: l,
		calls:    make(chan call),
		lanes:    min(maxLanes, runtime.GOMAXPROCS(0)),
		closedCh: make(chan struct{}),
		regions:  map[transport.RegionID][]byte{},
		peers:    map[transport.NodeID]string{},
		conns:    map[laneKey]*clientConn{},
		inbound:  map[net.Conn]struct{}{},
		reg:      metrics.NewRegistry(fmt.Sprintf("tcpnet/node-%d", id)),
	}
	for _, o := range opts {
		o(e)
	}
	e.baseCtx, e.baseCancel = context.WithCancel(context.Background())
	e.inflight = e.reg.Gauge("rpc_inflight")
	e.rtt = e.reg.Histogram("rpc_rtt")
	e.bytesTx = e.reg.Counter("bytes_tx")
	e.bytesRx = e.reg.Counter("bytes_rx")
	e.reconnects = e.reg.Counter("reconnect_attempts")
	e.served = e.reg.Counter("requests_served")
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the listener's address.
func (e *Endpoint) Addr() string { return e.listener.Addr().String() }

// ID implements transport.Endpoint.
func (e *Endpoint) ID() transport.NodeID { return e.id }

// Metrics exposes the endpoint's transport instrumentation: the rpc_inflight
// gauge, rpc_rtt latency histogram, bytes_tx/bytes_rx counters, the
// reconnect_attempts counter, and the requests_served counter.
func (e *Endpoint) Metrics() *metrics.Registry { return e.reg }

// AddPeer records the address of node id for outbound operations.
func (e *Endpoint) AddPeer(id transport.NodeID, addr string) {
	e.mu.Lock()
	e.peers[id] = addr
	e.mu.Unlock()
}

// addrLocked returns where node to listens: its peer entry or, for the
// endpoint's own ID without one, its own listener. e.mu must be held.
func (e *Endpoint) addrLocked(to transport.NodeID) (string, bool) {
	addr, ok := e.peers[to]
	if !ok && to == e.id {
		return e.Addr(), true
	}
	return addr, ok
}

// RegisterRegion implements transport.Endpoint.
func (e *Endpoint) RegisterRegion(id transport.RegionID, size int) ([]byte, error) {
	if size <= 0 {
		return nil, fmt.Errorf("tcpnet: region size %d must be positive", size)
	}
	if e.isClosed() {
		return nil, transport.ErrClosed
	}
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if _, ok := e.regions[id]; ok {
		return nil, fmt.Errorf("tcpnet: region %d already registered", id)
	}
	buf := make([]byte, size)
	e.regions[id] = buf
	return buf, nil
}

// DeregisterRegion implements transport.Endpoint.
func (e *Endpoint) DeregisterRegion(id transport.RegionID) error {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if _, ok := e.regions[id]; !ok {
		return fmt.Errorf("%w: region %d", transport.ErrNoRegion, id)
	}
	delete(e.regions, id)
	return nil
}

// SetHandler implements transport.Endpoint.
func (e *Endpoint) SetHandler(h transport.Handler) {
	e.regMu.Lock()
	e.handler = h
	e.regMu.Unlock()
}

func (e *Endpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[laneKey]*clientConn{}
	inbound := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()
	close(e.closedCh)
	e.baseCancel()
	err := e.listener.Close()
	for _, cc := range conns {
		_ = cc.w.conn.Close()
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	e.wg.Wait()
	return err
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.serveConn(conn)
		}()
	}
}

func (e *Endpoint) serveConn(conn net.Conn) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = conn.Close()
		return
	}
	e.inbound[conn] = struct{}{}
	e.mu.Unlock()
	// Response frames are queued by the read loop (one-sided fast path) and
	// by call workers. callWG counts this connection's calls in flight and is
	// drained before the writer's loop is told to finish, so workers never
	// queue onto a writer nobody flushes.
	w := newFrameWriter(conn)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		_ = w.loop() // a failed flush fails the read loop's next flush too
	}()
	var callWG sync.WaitGroup
	defer func() {
		callWG.Wait()
		close(w.done)
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
		_ = conn.Close()
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		// Flush deferred responses before the read can block: as long as
		// more pipelined requests are already buffered, responses keep
		// accumulating and go out in one syscall.
		if r.Buffered() == 0 {
			if err := w.flush(); err != nil {
				return
			}
		}
		req, err := readRequest(r)
		if err != nil {
			return // peer hung up or sent garbage
		}
		e.bytesRx.Add(int64(reqHeaderSize + len(req.payload)))
		e.served.Inc()
		if req.op == opCall {
			// Two-sided calls go to the call workers so a slow handler never
			// stalls one-sided traffic behind it.
			callWG.Add(1)
			if !e.dispatch(call{req: req, w: w, done: &callWG}) {
				callWG.Done()
				putBuf(req.payload)
				return
			}
			continue
		}
		// One-sided fast path: executed inline, in arrival order, and not
		// flushed — the loop top flushes once the request burst drains.
		// opRead copies the region bytes into a pooled buffer so the regions
		// read lock is released before the response is framed: a slow peer
		// stalling the socket write must not pin the lock and wedge
		// registration or one-sided traffic endpoint-wide. The pooled
		// response rides the queue as an iovec and is released by the flush
		// that confirms the kernel took it.
		var status byte
		var resp, release []byte
		if req.op == opRead && req.n > maxPayload {
			status = statusAppError
			resp = []byte(fmt.Sprintf("read of %d bytes exceeds %d-byte frame limit", req.n, maxPayload))
		} else if status, resp = e.execute(req); req.op == opRead {
			release = resp
		}
		werr := e.respond(w, req.id, status, resp, false, release)
		putBuf(req.payload)
		if werr != nil {
			return
		}
	}
}

// call is one two-sided request on its way to a call worker: the request,
// the writer its answer goes out through, and the serving connection's count
// of calls in flight, which the worker marks done once the answer is queued.
type call struct {
	req  request
	w    *frameWriter
	done *sync.WaitGroup
}

// dispatch hands c to an idle call worker, or starts one when none is idle
// and fewer than callConcurrency exist; otherwise the read loop waits for a
// worker to come free — backpressure: a saturated server stops reading new
// frames from the connection. It reports false if the endpoint closed first.
func (e *Endpoint) dispatch(c call) bool {
	select {
	case e.calls <- c:
		return true
	default:
	}
	if e.workers.Add(1) <= callConcurrency {
		e.wg.Add(1) // the read loop's own count keeps wg above zero
		go e.callWorker(c)
		return true
	}
	e.workers.Add(-1)
	select {
	case e.calls <- c:
		return true
	case <-e.closedCh:
		return false
	}
}

// callWorker serves c, then every call the read loops hand it, until the
// endpoint closes: a call costs no goroutine, closure or fresh stack. The
// flush that writes an answer releases the pooled request payload and the
// answer the handler handed over — once, when the answer is a view of the
// payload — so even such an answer reaches the wire intact. Workers kick the
// flusher, so a burst of completing handlers coalesces into one syscall.
func (e *Endpoint) callWorker(c call) {
	defer e.wg.Done()
	for {
		status, resp := e.execute(c.req)
		answer := resp
		if bufpool.Overlaps(resp, c.req.payload) {
			answer = nil
		}
		_ = e.respond(c.w, c.req.id, status, resp, true, c.req.payload, answer)
		c.done.Done()
		select {
		case c = <-e.calls:
		case <-e.closedCh:
			return
		}
	}
}

// respond queues one response frame. release lists the pooled buffers the
// frame depends on — an opRead's response payload; an opCall's request
// payload and answer — handed back to the pool by the flush that gives the
// frame to the kernel. kick is set by call workers, whose responses the
// flusher batches; the read loop's inline responses wait for its loop-top
// flush.
func (e *Endpoint) respond(w *frameWriter, id uint64, status byte, payload []byte, kick bool, release ...[]byte) error {
	if len(payload) > maxPayload {
		for _, b := range release {
			putBuf(b)
		}
		return fmt.Errorf("%w: payload %d exceeds %d", ErrFrameTooLarge, len(payload), maxPayload)
	}
	var hdr [respHeaderSize]byte
	binary.BigEndian.PutUint64(hdr[0:8], id)
	hdr[8] = status
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	if err := w.queue(id, hdr[:], payload, nil, kick, release...); err != nil {
		return err
	}
	e.bytesTx.Add(int64(respHeaderSize + len(payload)))
	return nil
}

// execute runs one decoded request against local state. An opRead's
// response buffer comes from the frame pool and is recycled once the frame
// is written; a control-plane handler gets the endpoint's base context. No
// branch holds regMu across socket I/O: the copy under the read lock is what
// lets the caller frame the response after the lock is released.
func (e *Endpoint) execute(req request) (byte, []byte) {
	switch req.op {
	case opWrite:
		e.regMu.RLock()
		buf, ok := e.regions[req.region]
		if !ok {
			e.regMu.RUnlock()
			return statusNoRegion, nil
		}
		if req.offset < 0 || req.offset+int64(len(req.payload)) > int64(len(buf)) {
			e.regMu.RUnlock()
			return statusOutOfBounds, nil
		}
		copy(buf[req.offset:], req.payload)
		e.regMu.RUnlock()
		return statusOK, nil
	case opRead:
		e.regMu.RLock()
		buf, ok := e.regions[req.region]
		if !ok {
			e.regMu.RUnlock()
			return statusNoRegion, nil
		}
		if req.offset < 0 || req.n < 0 || req.offset+int64(req.n) > int64(len(buf)) {
			e.regMu.RUnlock()
			return statusOutOfBounds, nil
		}
		out := getBuf(req.n)
		copy(out, buf[req.offset:])
		e.regMu.RUnlock()
		return statusOK, out
	case opCall:
		e.regMu.RLock()
		h := e.handler
		e.regMu.RUnlock()
		if h == nil {
			return statusNoHandler, nil
		}
		resp, err := h(e.baseCtx, req.from, req.payload)
		if err != nil {
			return statusAppError, []byte(err.Error())
		}
		return statusOK, resp
	default:
		return statusAppError, []byte(fmt.Sprintf("unknown op %d", req.op))
	}
}

// conn returns a pooled connection to peer id on the next round-robin lane,
// dialling on first use.
func (e *Endpoint) conn(ctx context.Context, to transport.NodeID) (laneKey, *clientConn, error) {
	key := laneKey{to: to, lane: int(e.rr.Add(1) % uint64(e.lanes))}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return key, nil, transport.ErrClosed
	}
	if cc, ok := e.conns[key]; ok {
		e.mu.Unlock()
		return key, cc, nil
	}
	addr, ok := e.addrLocked(to)
	e.mu.Unlock()
	if !ok {
		return key, nil, fmt.Errorf("%w: node %d has no known address", transport.ErrUnreachable, to)
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if ctx.Err() != nil {
			return key, nil, ctx.Err()
		}
		return key, nil, fmt.Errorf("%w: dial %s: %v", transport.ErrUnreachable, addr, err)
	}
	cc := &clientConn{w: newFrameWriter(c), pending: map[uint64]pendingOp{}}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = c.Close()
		return key, nil, transport.ErrClosed
	}
	if existing, ok := e.conns[key]; ok {
		e.mu.Unlock()
		_ = c.Close()
		return key, existing, nil
	}
	e.conns[key] = cc
	// Add while still holding e.mu: the closed check above means Close has
	// not yet reached wg.Wait, so the Add cannot race it.
	e.wg.Add(2)
	e.mu.Unlock()
	go e.readLoop(key, cc, bufio.NewReaderSize(c, 64<<10))
	go func() {
		defer e.wg.Done()
		// A failed flush fails the connection; requests whose frames never
		// reached the kernel are failed as retryable.
		if err := cc.w.loop(); err != nil {
			e.failConn(key, cc, err)
		}
	}()
	return key, cc, nil
}

// dropConn discards a broken pooled connection.
func (e *Endpoint) dropConn(key laneKey, cc *clientConn) {
	e.mu.Lock()
	if e.conns[key] == cc {
		delete(e.conns, key)
	}
	e.mu.Unlock()
	_ = cc.w.conn.Close()
}

// readLoop is the demultiplexer: the single goroutine that consumes response
// frames from one pooled connection and completes the matching round trips.
// It is length-aware: the pending entry is claimed before the payload is
// read, so a round trip that registered a destination buffer gets its bytes
// scattered straight off the socket into it, abandoned responses are
// discarded without allocating, and everything else lands in a pooled
// buffer. A claimed entry is always delivered exactly one result — on a read
// error its waiter hears the failure before failConn sweeps the rest — which
// is what lets a cancelled scatter read block until its buffer is safe.
func (e *Endpoint) readLoop(key laneKey, cc *clientConn, r *bufio.Reader) {
	defer e.wg.Done()
	var hdr [respHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			e.failConn(key, cc, err)
			return
		}
		id := binary.BigEndian.Uint64(hdr[0:8])
		status := hdr[8]
		payloadLen := int(binary.BigEndian.Uint32(hdr[9:13]))
		if payloadLen > maxPayload {
			e.failConn(key, cc, errors.New("tcpnet: oversized frame"))
			return
		}
		cc.pmu.Lock()
		op, ok := cc.pending[id]
		if ok {
			delete(cc.pending, id)
		}
		cc.pmu.Unlock()
		if !ok {
			// The waiter's context fired; drain the late response in place.
			if _, err := r.Discard(payloadLen); err != nil {
				e.failConn(key, cc, err)
				return
			}
			e.bytesRx.Add(int64(respHeaderSize + payloadLen))
			continue
		}
		if op.dst != nil && status == statusOK && payloadLen == len(op.dst) {
			if _, err := io.ReadFull(r, op.dst); err != nil {
				op.ch <- rpcResult{err: fmt.Errorf("%w: recv: %v", transport.ErrUnreachable, err)}
				e.failConn(key, cc, err)
				return
			}
			e.bytesRx.Add(int64(respHeaderSize + payloadLen))
			op.ch <- rpcResult{status: status}
			continue
		}
		payload := getBuf(payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			putBuf(payload)
			op.ch <- rpcResult{err: fmt.Errorf("%w: recv: %v", transport.ErrUnreachable, err)}
			e.failConn(key, cc, err)
			return
		}
		e.bytesRx.Add(int64(respHeaderSize + payloadLen))
		op.ch <- rpcResult{status: status, payload: payload}
	}
}

// failConn marks a connection dead and fails every pending round trip.
// A round trip is failed as retryable only when the kernel provably never
// accepted its frame's final byte (the recorded stream end offset exceeds
// the counted bytes handed to the socket): the peer can at most have
// received a truncated frame, which it discards without executing, so the
// caller transparently redials and re-sends. Frames fully handed to the
// kernel may have been delivered and executed, so those requests get the
// terminal error (their fate on the peer is unknown). Writes and reads
// racing a Close of the local endpoint are reported as ErrClosed, not
// ErrUnreachable: the peer did not go away, we did.
func (e *Endpoint) failConn(key laneKey, cc *clientConn, cause error) {
	e.dropConn(key, cc)
	closed := e.isClosed()
	err := error(transport.ErrClosed)
	if !closed {
		err = fmt.Errorf("%w: recv: %v", transport.ErrUnreachable, cause)
	}
	refs, accepted := cc.w.fail()
	cc.pmu.Lock()
	if cc.dead {
		cc.pmu.Unlock()
		return // the read loop or the flusher already failed this connection
	}
	cc.dead = true
	cc.deadErr = err
	pending := cc.pending
	cc.pending = nil
	cc.pmu.Unlock()
	close(cc.w.done)
	var unsentSet map[uint64]struct{}
	if len(refs) > 0 && !closed {
		unsentSet = make(map[uint64]struct{}, len(refs))
		for _, ref := range refs {
			if ref.end > accepted {
				unsentSet[ref.id] = struct{}{}
			}
		}
	}
	for id, op := range pending {
		if _, ok := unsentSet[id]; ok {
			op.ch <- rpcResult{err: fmt.Errorf("%w: send: %v", transport.ErrUnreachable, cause), retry: true}
		} else {
			op.ch <- rpcResult{err: err}
		}
	}
}

// send queues one request frame — its header plus the caller's payload
// slices, uncopied — and kicks the connection's flusher, which batches every
// frame queued by the current burst of runnable senders into one vectored
// write: the mechanism that keeps a one-core host from paying one write
// syscall per concurrent RPC.
//
// The queued payload slices remain caller-owned: the caller is blocked in
// its round trip until the response (which implies the flush) arrives, and
// the cancellation path detaches the slices from the queue before returning.
func (e *Endpoint) send(cc *clientConn, op byte, id uint64, region transport.RegionID, offset int64, n int, payload []byte, extra [][]byte) error {
	plen := len(payload)
	for _, b := range extra {
		plen += len(b)
	}
	var hdr [reqHeaderSize]byte
	hdr[0] = op
	binary.BigEndian.PutUint64(hdr[1:9], id)
	binary.BigEndian.PutUint64(hdr[9:17], uint64(e.id))
	binary.BigEndian.PutUint32(hdr[17:21], uint32(region))
	binary.BigEndian.PutUint64(hdr[21:29], uint64(offset))
	binary.BigEndian.PutUint32(hdr[29:33], uint32(n))
	binary.BigEndian.PutUint32(hdr[33:37], uint32(plen))
	if err := cc.w.queue(id, hdr[:], payload, extra, true); err != nil {
		return err
	}
	e.bytesTx.Add(int64(reqHeaderSize + plen))
	return nil
}

// roundTrip runs one request against a peer. payload and extra together form
// the request payload (extra is CallV's gather list; both may be
// nil); dst, when non-nil, is the caller's destination buffer for an opRead
// response, scattered into directly by the demux reader.
func (e *Endpoint) roundTrip(ctx context.Context, to transport.NodeID, op byte, region transport.RegionID, offset int64, n int, payload []byte, extra [][]byte, dst []byte) ([]byte, error) {
	plen := len(payload)
	for _, b := range extra {
		plen += len(b)
	}
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: payload %d exceeds %d", ErrFrameTooLarge, plen, maxPayload)
	}
	if n > maxPayload {
		return nil, fmt.Errorf("%w: read of %d exceeds %d", ErrFrameTooLarge, n, maxPayload)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		resp, retry, err := e.attempt(ctx, to, op, region, offset, n, payload, extra, dst)
		if err == nil {
			return resp, nil
		}
		if !retry || attempt+1 >= retryAttempts {
			return nil, err
		}
		// Reconnect with backoff instead of failing the caller.
		e.reconnects.Inc()
		t := time.NewTimer(retryBackoff << attempt)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// attempt runs one round trip. retry reports whether the failure is safe to
// retry: only errors where the request provably never reached the peer
// (dial failures, dead pooled connections, send errors) are retryable;
// once a request is on the wire a lost response is surfaced to the caller,
// never re-executed.
func (e *Endpoint) attempt(ctx context.Context, to transport.NodeID, op byte, region transport.RegionID, offset int64, n int, payload []byte, extra [][]byte, dst []byte) (_ []byte, retry bool, _ error) {
	key, cc, err := e.conn(ctx, to)
	if err != nil {
		if errors.Is(err, transport.ErrClosed) || ctx.Err() != nil {
			return nil, false, err
		}
		e.mu.Lock()
		_, known := e.addrLocked(to)
		e.mu.Unlock()
		return nil, known, err // unknown peers fail fast, dial errors retry
	}
	id, ch, err := cc.register(dst)
	if err != nil {
		return nil, true, err // connection died while pooled
	}
	if err := e.send(cc, op, id, region, offset, n, payload, extra); err != nil {
		cc.cancel(id, ch, nil)
		e.dropConn(key, cc)
		if e.isClosed() {
			return nil, false, transport.ErrClosed
		}
		return nil, true, fmt.Errorf("%w: send: %v", transport.ErrUnreachable, err)
	}
	e.inflight.Add(1)
	start := time.Now()
	var res rpcResult
	if done := ctx.Done(); done == nil {
		// Background-style context: a plain channel receive skips the
		// two-case select machinery on the hot path.
		res = <-ch
	} else {
		select {
		case res = <-ch:
		case <-done:
			e.inflight.Add(-1)
			if payload != nil || extra != nil {
				// Reclaim the caller's payload memory from the write queue
				// before handing the buffers back.
				cc.w.detach(id)
			}
			cc.cancel(id, ch, dst)
			return nil, false, ctx.Err()
		}
	}
	e.inflight.Add(-1)
	e.rtt.Observe(time.Since(start))
	if res.err != nil {
		return nil, res.retry, res.err
	}
	resultChanPool.Put(ch)
	out, err := e.decodeStatus(to, region, res.status, res.payload)
	if err != nil {
		putBuf(res.payload)
		return nil, false, err
	}
	if dst != nil && out != nil {
		// The reader fell back to a buffered read (length mismatch with dst:
		// a peer anomaly); salvage what fits.
		copied := copy(dst, out)
		putBuf(out)
		if copied != len(dst) {
			return nil, false, fmt.Errorf("tcpnet: short read: %d of %d bytes", copied, len(dst))
		}
		return nil, false, nil
	}
	return out, false, err
}

// decodeStatus maps a wire status byte back to the transport sentinel errors.
func (e *Endpoint) decodeStatus(to transport.NodeID, region transport.RegionID, status byte, resp []byte) ([]byte, error) {
	switch status {
	case statusOK:
		return resp, nil
	case statusNoRegion:
		return nil, fmt.Errorf("%w: region %d on node %d", transport.ErrNoRegion, region, to)
	case statusOutOfBounds:
		return nil, fmt.Errorf("%w: region %d on node %d", transport.ErrOutOfBounds, region, to)
	case statusNoHandler:
		return nil, fmt.Errorf("%w: node %d", transport.ErrNoHandler, to)
	case statusAppError:
		return nil, fmt.Errorf("tcpnet: remote error: %s", resp)
	default:
		return nil, fmt.Errorf("tcpnet: unknown status %d", status)
	}
}

// WriteRegion implements transport.Verbs.
func (e *Endpoint) WriteRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, data []byte) error {
	_, err := e.roundTrip(ctx, to, opWrite, region, offset, 0, data, nil, nil)
	return err
}

// ReadRegion implements transport.Verbs. The returned buffer is drawn from
// the shared frame pool; the caller owns it and may release it with
// bufpool.Put when done (retaining it merely strands one pooled buffer).
func (e *Endpoint) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	return e.roundTrip(ctx, to, opRead, region, offset, n, nil, nil, nil)
}

// ReadRegionInto implements transport.ScatterReader: the demux reader
// scatters the response payload straight off the socket into dst, so a
// steady-state read allocates nothing. dst is lent to the transport for the
// duration of the call; if ctx fires mid-response the call blocks until the
// reader has finished with dst before returning ctx.Err().
func (e *Endpoint) ReadRegionInto(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	_, err := e.roundTrip(ctx, to, opRead, region, offset, len(dst), nil, nil, dst)
	return err
}

// Call implements transport.Verbs. The answer is drawn from the shared frame
// pool, like ReadRegion's result: the caller owns it and may release it with
// bufpool.Put once decoded.
func (e *Endpoint) Call(ctx context.Context, to transport.NodeID, payload []byte) ([]byte, error) {
	return e.roundTrip(ctx, to, opCall, 0, 0, 0, payload, nil, nil)
}

// CallV implements transport.VectoredCaller: bufs ride the write queue as one
// frame's iovec list, and the peer reads them into one pooled payload for
// its handler.
func (e *Endpoint) CallV(ctx context.Context, to transport.NodeID, bufs [][]byte) ([]byte, error) {
	return e.roundTrip(ctx, to, opCall, 0, 0, 0, nil, bufs, nil)
}

// request is one decoded request frame. Its payload is drawn from the frame
// pool: it is released once the op has been applied (one-sided) or its
// response flushed (calls — handlers see it only until they return).
type request struct {
	op      byte
	id      uint64
	from    transport.NodeID
	region  transport.RegionID
	offset  int64
	n       int
	payload []byte
}

func readRequest(r *bufio.Reader) (request, error) {
	// Peek+Discard instead of ReadFull into a local array: the array would
	// escape through the io.Reader interface and cost one heap allocation per
	// request frame.
	hdr, err := r.Peek(reqHeaderSize)
	if err != nil {
		return request{}, err
	}
	req := request{
		op:     hdr[0],
		id:     binary.BigEndian.Uint64(hdr[1:9]),
		from:   transport.NodeID(binary.BigEndian.Uint64(hdr[9:17])),
		region: transport.RegionID(binary.BigEndian.Uint32(hdr[17:21])),
		offset: int64(binary.BigEndian.Uint64(hdr[21:29])),
		n:      int(int32(binary.BigEndian.Uint32(hdr[29:33]))),
	}
	payloadLen := binary.BigEndian.Uint32(hdr[33:37])
	if _, err := r.Discard(reqHeaderSize); err != nil {
		return request{}, err
	}
	if payloadLen > maxPayload {
		return request{}, errors.New("tcpnet: oversized frame")
	}
	req.payload = getBuf(int(payloadLen))
	if _, err := io.ReadFull(r, req.payload); err != nil {
		putBuf(req.payload)
		return request{}, err
	}
	return req, nil
}

// The frame buffer pool is the repository-wide size-classed pool in
// internal/bufpool (4 KiB–4 MiB classes), shared with the core client's
// scratch buffers so a response buffer released by one layer serves the
// next. These thin wrappers keep the package's historical spelling.

// getBuf returns a length-n buffer, reusing a pooled one when available.
func getBuf(n int) []byte { return bufpool.Get(n) }

// putBuf recycles a buffer previously returned by getBuf.
func putBuf(b []byte) { bufpool.Put(b) }
