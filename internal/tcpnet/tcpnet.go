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
// connection is split into a send side (a mutex held only for the duration
// of one frame write) and a single demultiplexing reader goroutine that
// routes responses to per-request channels. Unlimited RPCs to the same peer
// proceed concurrently; none waits for another's round trip. Because a
// single connection's frame-processing loops are themselves serial, each
// peer gets a small stripe of such connections ("lanes", like a pool of RC
// queue pairs; WithConnsPerPeer) and requests round-robin across them, and
// flush syscalls are coalesced: senders only buffer their frame, and a
// per-connection flush goroutine pushes everything the current burst of
// runnable senders wrote out in one syscall (doorbell batching, in RDMA
// terms).
//
// On the serving side, one-sided opWrite/opRead frames are executed inline
// in the connection's read loop — so one-sided operations on a connection
// execute in exactly the order they were sent, mirroring RC QP ordering —
// while two-sided opCall frames are dispatched to worker goroutines bounded
// by a configurable endpoint-wide cap (WithCallConcurrency). With a cap of 1
// control-plane calls are delivered strictly serially in arrival order;
// with a larger cap, calls whose issuer did not wait for a prior completion
// may be handled concurrently, exactly as multiple outstanding SENDs would.
// Registered regions are guarded by an RWMutex so one-sided operations from
// many connections proceed in parallel. As with real RDMA, concurrently
// accessing overlapping bytes of one region is the application's race to
// avoid.
//
// Broken pooled connections are redialled with exponential backoff instead
// of failing the caller, and every verb honors its context: cancellation or
// deadline expiry abandons the wait immediately (the late response, if any,
// is discarded by the demux reader). A retry is only ever attempted when the
// request frame provably never fully reached the socket: the transport
// counts every byte handed to the kernel and records each frame's end offset
// in the outbound stream, so a frame is re-sent only if the connection died
// before all of its bytes were written — operations are never duplicated on
// the peer by the transport itself.
//
// # Zero-copy data plane
//
// Outbound frames are never assembled into a contiguous staging buffer.
// Senders queue an iovec list — a pooled header block plus the caller's
// payload slices, unmodified — and the flush goroutine hands the whole burst
// to the kernel with one vectored write (net.Buffers, i.e. writev on a TCP
// socket). CallV extends this to gather calls: the slices reach the peer's
// handler as one payload without the client ever concatenating them.
// Inbound, the demux reader is length-aware: a response whose round trip
// registered a destination buffer (ReadRegionInto) is scattered straight
// into it with io.ReadFull, and every other payload comes from the shared
// size-classed pool (internal/bufpool) rather than a per-response make. The
// ownership rules are bufpool's: pooled buffers handed to callers become
// owned; owners that retain them simply strand one pooled buffer.
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

// DefaultCallConcurrency is the endpoint-wide cap on concurrently executing
// control-plane handlers unless overridden with WithCallConcurrency.
const DefaultCallConcurrency = 32

const (
	// retryAttempts bounds how many times an operation is retried when its
	// request could not be sent (dead pooled connection, dial failure).
	retryAttempts = 3
	// retryBackoff is the base delay between attempts; it doubles each time.
	retryBackoff = 20 * time.Millisecond
)

// Option configures an Endpoint at Listen time.
type Option func(*Endpoint)

// WithCallConcurrency caps how many control-plane (Call) handlers may run
// concurrently across all inbound connections. n < 1 is treated as 1; a cap
// of 1 restores strictly serial, in-arrival-order call delivery.
func WithCallConcurrency(n int) Option {
	return func(e *Endpoint) {
		if n < 1 {
			n = 1
		}
		e.callCap = n
	}
}

// DefaultConnsPerPeer caps the default number of striped connections
// ("lanes") kept per peer, like a small pool of RC queue pairs to one remote
// NIC. The actual default is min(DefaultConnsPerPeer, GOMAXPROCS): extra
// lanes only pay off when their frame-processing loops can run in parallel.
const DefaultConnsPerPeer = 8

// WithConnsPerPeer sets how many TCP connections are pooled per peer.
// Requests round-robin across lanes, so the per-connection read/demux loops
// — the serial bottleneck once RPCs are multiplexed — run in parallel.
// n < 1 is treated as 1 (a single shared connection).
func WithConnsPerPeer(n int) Option {
	return func(e *Endpoint) {
		if n < 1 {
			n = 1
		}
		e.lanes = n
	}
}

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
	callCap  int
	callSem  chan struct{}
	closedCh chan struct{}

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
// execution on the peer. pooled marks a payload drawn from the frame pool;
// the round trip releases it unless ownership passes to the caller.
type rpcResult struct {
	status  byte
	payload []byte
	err     error
	retry   bool
	pooled  bool
}

// frameRef remembers where one request frame ends in the outbound byte
// stream, so a connection failure can tell frames that were fully handed to
// the kernel (possibly delivered and executed — never retried) from frames
// the socket provably never finished accepting (safe to retry: the peer can
// at most have seen a truncated frame, which it discards without executing).
// bi/bn locate the frame's slices in the vecQueue while it is unflushed, so
// a cancelled round trip can detach caller-owned payload memory from the
// queue before returning.
type frameRef struct {
	id     uint64
	end    int64 // stream offset one past the frame's last byte
	bi, bn int   // the frame's slice range in vecQueue.bufs
}

// burstBytes is the queue size past which a flush fires immediately instead
// of yielding for more of the sender burst (the old bufio buffer size).
const burstBytes = 64 << 10

// vecQueue is the vectored outbound frame queue shared by the client send
// path and the server response path. Frames are queued as iovecs — a pooled
// header block plus the payload slices, unreferenced and uncopied — and
// flush hands the whole queue to the kernel with one net.Buffers vectored
// write. The embedding connection's mutex guards all fields.
type vecQueue struct {
	bufs     net.Buffers            // queued iovecs, in frame order
	wto      net.Buffers            // WriteTo staging (see flush)
	hdrs     []*[reqHeaderSize]byte // header blocks in flight, recycled on flush
	free     []*[reqHeaderSize]byte // header block freelist
	release  [][]byte               // pooled payloads released after flush
	raceCopy []byte                 // race builds only: see flush
	queued   int64                  // bytes in bufs
	written  int64                  // bytes the kernel has accepted since dial
}

// header returns a recycled (or new) header block and tracks it for reuse
// after the next successful flush. Response headers use a prefix of the
// request-sized block.
func (q *vecQueue) header() *[reqHeaderSize]byte {
	var h *[reqHeaderSize]byte
	if n := len(q.free); n > 0 {
		h = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		h = new([reqHeaderSize]byte)
	}
	q.hdrs = append(q.hdrs, h)
	return h
}

// flush hands every queued iovec to the kernel in one vectored write. On
// success the queue is reset with its backing storage retained, header
// blocks return to the freelist, and pooled payloads are released. On error
// the queue is left as-is (the connection is dead); written still reflects
// the bytes the kernel accepted, which is what the retry classification in
// failConn compares frame end offsets against.
func (q *vecQueue) flush(conn net.Conn) error {
	if len(q.bufs) == 0 {
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
		for _, b := range q.bufs {
			var m int
			q.raceCopy = append(q.raceCopy[:0], b...)
			m, err = conn.Write(q.raceCopy)
			n += int64(m)
			if err != nil {
				break
			}
		}
	} else {
		// WriteTo consumes its receiver (and nils out sent entries), so hand
		// it a copy of the slice header and keep ours for backing-array reuse.
		// The copy is staged in the queue struct, not a local: a local would
		// escape to the heap on every flush through WriteTo's pointer
		// receiver — the last allocation on the steady-state path.
		q.wto = q.bufs
		n, err = q.wto.WriteTo(conn)
		q.wto = nil
	}
	q.written += n
	if err != nil {
		return err
	}
	q.bufs = q.bufs[:0]
	q.queued = 0
	q.free = append(q.free, q.hdrs...)
	q.hdrs = q.hdrs[:0]
	for _, b := range q.release {
		putBuf(b)
	}
	q.release = q.release[:0]
	return nil
}

// pendingOp is one in-flight round trip awaiting its response. dst, when
// non-nil, is the caller's destination buffer: the demux reader scatters a
// matching OK payload straight into it. pool selects how other payloads are
// read: from the frame pool (one-sided ops; the round trip releases them)
// or freshly allocated (call responses, which the application retains).
type pendingOp struct {
	ch   chan rpcResult
	dst  []byte
	pool bool
}

// clientConn is one pooled outbound connection. The write side is guarded by
// wmu (held only while one frame is queued or the queue is flushed);
// responses are consumed by a single reader goroutine that routes them to
// pending by request ID.
//
// Flushes are coalesced: senders only queue their frame's iovecs and mark
// the writer dirty, and the connection's flush goroutine pushes everything
// the current burst of runnable senders queued out in one vectored write.
// unflushed records the stream end offset of every frame not yet confirmed
// flushed; because vq.written counts the bytes the kernel has actually
// accepted (a failed writev reports its partial progress), a failure marks
// exactly the frames whose end offset lies beyond the accepted-byte count as
// retryable — those provably never reached the peer intact — while frames
// fully handed to the kernel surface the error to their callers.
type clientConn struct {
	c net.Conn

	wmu       sync.Mutex
	vq        vecQueue
	unflushed []frameRef
	wdead     bool          // write side failed; senders must not queue more frames
	dirty     chan struct{} // cap 1: "queued frames await a flush"
	done      chan struct{} // closed exactly once by failConn

	pmu     sync.Mutex
	pending map[uint64]pendingOp
	nextID  uint64
	dead    bool
	deadErr error
}

// resultChanPool recycles the buffered per-request response channels.
var resultChanPool = sync.Pool{New: func() any { return make(chan rpcResult, 1) }}

// register allocates a request ID and its response channel. dst and pool
// configure how the demux reader lands this request's response payload.
func (cc *clientConn) register(dst []byte, pool bool) (uint64, chan rpcResult, error) {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	if cc.dead {
		return 0, nil, cc.deadErr
	}
	cc.nextID++
	id := cc.nextID
	ch := resultChanPool.Get().(chan rpcResult)
	cc.pending[id] = pendingOp{ch: ch, dst: dst, pool: pool}
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
		if res.pooled {
			putBuf(res.payload)
		}
		resultChanPool.Put(ch)
	}
}

// detach unbinds a cancelled frame's payload iovecs from caller-owned
// memory: each still-queued payload slice is copied into a pooled buffer
// that the flush releases. The caller regains exclusive ownership of its
// buffers the moment detach returns, while the stream keeps its framing (the
// queued header promised payloadLen bytes, so the bytes themselves must
// still go out). The happy path never pays this copy — only a context
// cancellation that outruns the flush goroutine does.
func (cc *clientConn) detach(id uint64) {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	for _, ref := range cc.unflushed {
		if ref.id != id {
			continue
		}
		for i := ref.bi + 1; i < ref.bi+ref.bn; i++ {
			b := cc.vq.bufs[i]
			cp := getBuf(len(b))
			copy(cp, b)
			cc.vq.bufs[i] = cp
			cc.vq.release = append(cc.vq.release, cp)
		}
		return
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
		callCap:  DefaultCallConcurrency,
		lanes:    min(DefaultConnsPerPeer, runtime.GOMAXPROCS(0)),
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
	e.callSem = make(chan struct{}, e.callCap)
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
		_ = cc.c.Close()
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
	// by call workers; cw serializes them and coalesces flushes into one
	// vectored write. callWG is drained before the connection is torn down so
	// workers never queue onto a freed writer.
	cw := &connWriter{
		conn:  conn,
		dirty: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		cw.flushLoop()
	}()
	var callWG sync.WaitGroup
	defer func() {
		callWG.Wait()
		close(cw.done)
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
			if err := cw.flushPending(); err != nil {
				return
			}
		}
		req, err := readRequest(r)
		if err != nil {
			return // peer hung up or sent garbage
		}
		e.bytesRx.Add(int64(reqHeaderSize + len(req.payload)))
		e.served.Inc()
		switch req.op {
		case opRead, opWrite:
			// One-sided fast path: executed inline, in arrival order, and not
			// flushed — the loop top flushes once the request burst drains.
			// opRead copies the region bytes into a pooled buffer so the
			// regions read lock is released before the response is framed: a
			// slow peer stalling the socket write must not pin the lock and
			// wedge registration or one-sided traffic endpoint-wide. The
			// pooled response rides the queue as an iovec and is released by
			// the flush that confirms the kernel took it.
			var status byte
			var resp, release []byte
			if req.op == opRead && req.n > maxPayload {
				status = statusAppError
				resp = []byte(fmt.Sprintf("read of %d bytes exceeds %d-byte frame limit", req.n, maxPayload))
			} else if status, resp = e.execute(e.baseCtx, req, true); req.op == opRead {
				release = resp
			}
			werr := e.respond(cw, req.id, status, resp, release, false)
			putBuf(req.payload)
			if werr != nil {
				return
			}
		case opCall:
			// Two-sided calls go to bounded workers so a slow handler never
			// stalls one-sided traffic behind it. Acquiring the semaphore
			// here (not in the worker) applies backpressure: a saturated
			// server stops reading new frames from this connection.
			select {
			case e.callSem <- struct{}{}:
			case <-e.closedCh:
				return
			}
			callWG.Add(1)
			go func(req request) {
				defer callWG.Done()
				defer func() { <-e.callSem }()
				status, resp := e.execute(e.baseCtx, req, false)
				// Workers hand the flush to the connection's flusher so a
				// burst of completing handlers coalesces into one syscall. The
				// pooled request payload is released by that flush, not here, so
				// even a response that aliases it reaches the wire intact.
				_ = e.respond(cw, req.id, status, resp, req.payload, true)
			}(req)
		default:
			putBuf(req.payload)
			if e.respond(cw, req.id, statusAppError,
				[]byte(fmt.Sprintf("unknown op %d", req.op)), nil, false) != nil {
				return
			}
		}
	}
}

// connWriter is the shared, flush-coalescing response writer for one inbound
// connection. Responses are queued as iovecs (header block plus payload,
// uncopied); the read loop's inline responses are flushed at the loop top
// once the request burst drains, while call workers mark the writer dirty
// and the flush goroutine pushes a burst of handler responses out in one
// vectored write.
type connWriter struct {
	mu    sync.Mutex
	conn  net.Conn
	q     vecQueue
	dead  bool
	dirty chan struct{} // cap 1: worker responses await a flush
	done  chan struct{} // closed by serveConn after workers drain
}

// flushPending pushes out any deferred response frames.
func (cw *connWriter) flushPending() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.dead {
		return errors.New("tcpnet: connection writer failed")
	}
	err := cw.q.flush(cw.conn)
	if err != nil {
		cw.dead = true
	}
	return err
}

// flushLoop drains worker responses. Flush errors are ignored here: the
// connection is torn down by the read loop, which sees the same failure.
func (cw *connWriter) flushLoop() {
	for {
		select {
		case <-cw.dirty:
			waitForBurst(&cw.mu, &cw.q)
			_ = cw.flushPending()
		case <-cw.done:
			_ = cw.flushPending() // whatever the last workers left behind
			return
		}
	}
}

// respond queues one response frame as iovecs. release, when non-nil, is a
// pooled buffer the frame depends on — an opRead's response payload, an
// opCall's request payload — handed back to the pool by the flush that gives
// the frame to the kernel. With deferFlush=false (read-loop fast path) the
// frame waits for the loop-top flush; with deferFlush=true (call workers) the
// connection's flush goroutine batches the burst.
func (e *Endpoint) respond(cw *connWriter, id uint64, status byte, payload, release []byte, deferFlush bool) error {
	if len(payload) > maxPayload {
		putBuf(release)
		return fmt.Errorf("%w: payload %d exceeds %d", ErrFrameTooLarge, len(payload), maxPayload)
	}
	cw.mu.Lock()
	if cw.dead {
		cw.mu.Unlock()
		putBuf(release)
		return errors.New("tcpnet: connection writer failed")
	}
	hdr := cw.q.header()
	binary.BigEndian.PutUint64(hdr[0:8], id)
	hdr[8] = status
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	cw.q.bufs = append(cw.q.bufs, hdr[:respHeaderSize])
	if len(payload) > 0 {
		cw.q.bufs = append(cw.q.bufs, payload)
	}
	if release != nil {
		cw.q.release = append(cw.q.release, release)
	}
	cw.q.queued += int64(respHeaderSize + len(payload))
	cw.mu.Unlock()
	e.bytesTx.Add(int64(respHeaderSize + len(payload)))
	if deferFlush {
		select {
		case cw.dirty <- struct{}{}:
		default:
		}
	}
	return nil
}

// execute runs one decoded request against local state. ctx is the request
// context handed to control-plane handlers: the endpoint's base context for
// inbound frames, the caller's context on the loopback path. When pool is
// true the opRead response buffer comes from the frame pool and the caller
// recycles it after the frame is written; the loopback path passes pool=false
// because its result is handed to the application. No branch holds regMu
// across socket I/O: the copy under the read lock is what lets the caller
// frame the response after the lock is released.
func (e *Endpoint) execute(ctx context.Context, req request, pool bool) (byte, []byte) {
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
		var out []byte
		if pool {
			out = getBuf(req.n)
		} else {
			out = make([]byte, req.n)
		}
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
		resp, err := h(ctx, req.from, req.payload)
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
	addr, ok := e.peers[to]
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
	cc := &clientConn{
		c:       c,
		dirty:   make(chan struct{}, 1),
		done:    make(chan struct{}),
		pending: map[uint64]pendingOp{},
	}
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
	go e.flushLoop(key, cc)
	return key, cc, nil
}

// dropConn discards a broken pooled connection.
func (e *Endpoint) dropConn(key laneKey, cc *clientConn) {
	e.mu.Lock()
	if e.conns[key] == cc {
		delete(e.conns, key)
	}
	e.mu.Unlock()
	_ = cc.c.Close()
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
		var payload []byte
		if op.pool {
			payload = getBuf(payloadLen)
		} else {
			payload = make([]byte, payloadLen)
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			if op.pool {
				putBuf(payload)
			}
			op.ch <- rpcResult{err: fmt.Errorf("%w: recv: %v", transport.ErrUnreachable, err)}
			e.failConn(key, cc, err)
			return
		}
		e.bytesRx.Add(int64(respHeaderSize + payloadLen))
		op.ch <- rpcResult{status: status, payload: payload, pooled: op.pool}
	}
}

// failConn marks a connection dead and fails every pending round trip.
// A round trip is failed as retryable only when the kernel provably never
// accepted its frame's final byte (the recorded stream end offset exceeds
// the counted bytes handed to the socket): the peer can at most have
// received a truncated frame, which it discards without executing, so the
// caller transparently redials and re-sends. Frames fully handed to the
// kernel — whether by the flush goroutine or by a bufio overflow flush —
// may have been delivered and executed, so those requests get the terminal
// error (their fate on the peer is unknown). Writes and reads racing a
// Close of the local endpoint are reported as ErrClosed, not
// ErrUnreachable: the peer did not go away, we did.
func (e *Endpoint) failConn(key laneKey, cc *clientConn, cause error) {
	e.dropConn(key, cc)
	closed := e.isClosed()
	err := error(transport.ErrClosed)
	if !closed {
		err = fmt.Errorf("%w: recv: %v", transport.ErrUnreachable, cause)
	}
	cc.wmu.Lock()
	cc.wdead = true
	refs := cc.unflushed
	cc.unflushed = nil
	accepted := cc.vq.written
	cc.wmu.Unlock()
	cc.pmu.Lock()
	if cc.dead {
		cc.pmu.Unlock()
		return // the read loop or flush loop already failed this connection
	}
	cc.dead = true
	cc.deadErr = err
	pending := cc.pending
	cc.pending = nil
	cc.pmu.Unlock()
	close(cc.done)
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

// send queues one request frame as iovecs — a pooled header block plus the
// caller's payload slices, uncopied; wmu is held only for the queueing, so
// concurrent round trips interleave whole frames rather than waiting for
// each other's responses. The vectored-write syscall is always deferred to
// the connection's flush goroutine, which batches every frame queued by the
// current burst of runnable senders — the mechanism that keeps a one-core
// host from paying one write syscall per concurrent RPC. Until a flush
// confirms delivery to the kernel, the frame's stream end offset rides in
// unflushed, which is what lets a failed flush (a stale pooled connection,
// typically) be retried safely: failConn compares each recorded offset
// against the bytes the socket actually accepted.
//
// The queued payload slices remain caller-owned: the caller is blocked in
// its round trip until the response (which implies the flush) arrives, and
// the cancellation path detaches the slices from the queue before returning.
func (e *Endpoint) send(cc *clientConn, op byte, id uint64, region transport.RegionID, offset int64, n int, payload []byte, extra [][]byte) error {
	plen := len(payload)
	for _, b := range extra {
		plen += len(b)
	}
	cc.wmu.Lock()
	if cc.wdead {
		cc.wmu.Unlock()
		return errors.New("connection already failed")
	}
	q := &cc.vq
	hdr := q.header()
	hdr[0] = op
	binary.BigEndian.PutUint64(hdr[1:9], id)
	binary.BigEndian.PutUint64(hdr[9:17], uint64(e.id))
	binary.BigEndian.PutUint32(hdr[17:21], uint32(region))
	binary.BigEndian.PutUint64(hdr[21:29], uint64(offset))
	binary.BigEndian.PutUint32(hdr[29:33], uint32(n))
	binary.BigEndian.PutUint32(hdr[33:37], uint32(plen))
	bi := len(q.bufs)
	q.bufs = append(q.bufs, hdr[:])
	if len(payload) > 0 {
		q.bufs = append(q.bufs, payload)
	}
	for _, b := range extra {
		if len(b) > 0 {
			q.bufs = append(q.bufs, b)
		}
	}
	q.queued += int64(reqHeaderSize + plen)
	cc.unflushed = append(cc.unflushed, frameRef{id: id, end: q.written + q.queued, bi: bi, bn: len(q.bufs) - bi})
	cc.wmu.Unlock()
	e.bytesTx.Add(int64(reqHeaderSize + plen))
	select {
	case cc.dirty <- struct{}{}:
	default: // a flush is already scheduled
	}
	return nil
}

// flushLoop is one connection's deferred flusher: it wakes after a burst of
// senders has marked the writer dirty and pushes their frames out together
// in one vectored write. A failed flush fails the connection; requests whose
// frames never reached the kernel are failed as retryable.
func (e *Endpoint) flushLoop(key laneKey, cc *clientConn) {
	defer e.wg.Done()
	for {
		select {
		case <-cc.dirty:
			waitForBurst(&cc.wmu, &cc.vq)
			cc.wmu.Lock()
			err := cc.vq.flush(cc.c)
			if err == nil {
				// Queue empty: every recorded frame end is <= vq.written,
				// i.e. fully handed to the kernel and no longer retryable.
				cc.unflushed = cc.unflushed[:0]
			}
			cc.wmu.Unlock()
			if err != nil {
				// failConn snapshots the still-unflushed IDs and fails those
				// round trips as retryable.
				e.failConn(key, cc, err)
				return
			}
		case <-cc.done:
			return
		}
	}
}

// waitForBurst yields the processor until q stops accumulating frames, so a
// flush goroutine woken by the first sender of a burst does not fire before
// the rest of the runnable senders have queued theirs. Bounded: at most a
// few yields, and a queue already past the burst threshold flushes at once.
func waitForBurst(mu *sync.Mutex, q *vecQueue) {
	prev := int64(-1)
	for i := 0; i < 4; i++ {
		mu.Lock()
		cur := q.queued
		mu.Unlock()
		if cur == prev || cur > burstBytes {
			return
		}
		prev = cur
		runtime.Gosched()
	}
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
	if to == e.id {
		// Loopback: execute locally without touching the network.
		if e.isClosed() {
			return nil, transport.ErrClosed
		}
		if op == opRead && dst != nil {
			return nil, e.readLocalInto(to, region, offset, dst)
		}
		if extra != nil {
			// A gather call: the handler needs one contiguous payload.
			payload = getBuf(plen)
			defer putBuf(payload)
			at := 0
			for _, b := range extra {
				at += copy(payload[at:], b)
			}
		}
		status, resp := e.execute(ctx, request{
			op: op, from: e.id, region: region, offset: offset, n: n, payload: payload,
		}, false)
		return e.decodeStatus(to, region, status, resp)
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
		_, known := e.peers[to]
		e.mu.Unlock()
		return nil, known, err // unknown peers fail fast, dial errors retry
	}
	id, ch, err := cc.register(dst, op != opCall)
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
				cc.detach(id)
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
		if res.pooled {
			putBuf(res.payload)
		}
		return nil, false, err
	}
	if dst != nil && out != nil {
		// The reader fell back to a buffered read (length mismatch with dst:
		// a peer anomaly); salvage what fits.
		copied := copy(dst, out)
		if res.pooled {
			putBuf(out)
		}
		if copied != len(dst) {
			return nil, false, fmt.Errorf("tcpnet: short read: %d of %d bytes", copied, len(dst))
		}
		return nil, false, nil
	}
	return out, false, err
}

// readLocalInto applies a loopback scatter read directly from the region.
func (e *Endpoint) readLocalInto(to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	e.regMu.RLock()
	defer e.regMu.RUnlock()
	buf, ok := e.regions[region]
	if !ok {
		return fmt.Errorf("%w: region %d on node %d", transport.ErrNoRegion, region, to)
	}
	if offset < 0 || offset+int64(len(dst)) > int64(len(buf)) {
		return fmt.Errorf("%w: region %d on node %d", transport.ErrOutOfBounds, region, to)
	}
	copy(dst, buf[offset:])
	return nil
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

// Call implements transport.Verbs.
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
// pool: the serving loop releases it once the op has been applied (one-sided)
// or its response flushed (calls — handlers see it only until they return).
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
