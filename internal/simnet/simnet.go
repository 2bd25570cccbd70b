// Package simnet implements transport.Endpoint over a discrete-event
// simulated RDMA fabric, standing in for the paper's 56 Gbps InfiniBand
// cluster (§V). Every operation charges serialization and propagation time
// to the calling simulation process; per-ordered-pair links serialize
// transfers, reproducing the reliable-connected queue pair's in-order,
// at-most-once delivery contract (§IV.G).
//
// The fabric supports failure injection — network partitions and node
// detachment — which the fault-tolerance experiments use.
package simnet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godm/internal/des"
	"godm/internal/transport"
)

// Params describes the interconnect.
type Params struct {
	// Latency is the one-way propagation latency per message.
	Latency time.Duration
	// Bandwidth is link bandwidth in bytes per second.
	Bandwidth float64
	// PerMessage is the fixed verb-processing overhead added to every
	// operation (doorbell ring, completion handling).
	PerMessage time.Duration
}

// DefaultParams models 56 Gbps FDR InfiniBand: ~1.5 µs one-way propagation,
// 7 GB/s payload bandwidth, 1.5 µs verb overhead — a ~3 µs 4 KB read, the
// figure the RDMA literature (and the paper's disk-network gap argument)
// assumes.
func DefaultParams() Params {
	return Params{
		Latency:    1500 * time.Nanosecond,
		Bandwidth:  7e9,
		PerMessage: 1500 * time.Nanosecond,
	}
}

type pair struct{ from, to transport.NodeID }

// Fabric is a simulated interconnect. Create endpoints with Attach.
type Fabric struct {
	env    *des.Env
	params Params

	mu          sync.Mutex
	endpoints   map[transport.NodeID]*Endpoint
	links       map[pair]*des.Link
	partitioned map[pair]bool
}

// New returns a fabric bound to the simulation environment.
func New(env *des.Env, params Params) *Fabric {
	if params.Bandwidth <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	return &Fabric{
		env:         env,
		params:      params,
		endpoints:   map[transport.NodeID]*Endpoint{},
		links:       map[pair]*des.Link{},
		partitioned: map[pair]bool{},
	}
}

// Attach creates the endpoint for node id.
func (f *Fabric) Attach(id transport.NodeID) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.endpoints[id]; ok {
		return nil, fmt.Errorf("simnet: node %d already attached", id)
	}
	ep := &Endpoint{fabric: f, id: id, regions: map[transport.RegionID][]byte{}}
	f.endpoints[id] = ep
	return ep, nil
}

// Partition cuts connectivity between a and b in both directions.
func (f *Fabric) Partition(a, b transport.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partitioned[pair{a, b}] = true
	f.partitioned[pair{b, a}] = true
}

// Heal restores connectivity between a and b.
func (f *Fabric) Heal(a, b transport.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.partitioned, pair{a, b})
	delete(f.partitioned, pair{b, a})
}

// link returns the (lazily created) directed link from a to b.
func (f *Fabric) link(a, b transport.NodeID) *des.Link {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := pair{a, b}
	l, ok := f.links[key]
	if !ok {
		name := fmt.Sprintf("link.%d-%d", a, b)
		l = des.NewLink(f.env, name, f.params.Latency, f.params.Bandwidth)
		f.links[key] = l
	}
	return l
}

// target resolves the destination endpoint, enforcing liveness and
// partitions.
func (f *Fabric) target(from, to transport.NodeID) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.partitioned[pair{from, to}] {
		return nil, fmt.Errorf("%w: %d->%d partitioned", transport.ErrUnreachable, from, to)
	}
	ep, ok := f.endpoints[to]
	if !ok || ep.closed {
		return nil, fmt.Errorf("%w: node %d", transport.ErrUnreachable, to)
	}
	return ep, nil
}

// Endpoint is one node's attachment to the simulated fabric.
type Endpoint struct {
	fabric *Fabric
	id     transport.NodeID

	mu      sync.Mutex
	regions map[transport.RegionID][]byte
	handler transport.Handler
	closed  bool
}

var _ transport.Endpoint = (*Endpoint)(nil)

// ID implements transport.Endpoint.
func (e *Endpoint) ID() transport.NodeID { return e.id }

// RegisterRegion implements transport.Endpoint.
func (e *Endpoint) RegisterRegion(id transport.RegionID, size int) ([]byte, error) {
	if size <= 0 {
		return nil, fmt.Errorf("simnet: region size %d must be positive", size)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, transport.ErrClosed
	}
	if _, ok := e.regions[id]; ok {
		return nil, fmt.Errorf("simnet: region %d already registered on node %d", id, e.id)
	}
	buf := make([]byte, size)
	e.regions[id] = buf
	return buf, nil
}

// DeregisterRegion implements transport.Endpoint.
func (e *Endpoint) DeregisterRegion(id transport.RegionID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.regions[id]; !ok {
		return fmt.Errorf("%w: region %d on node %d", transport.ErrNoRegion, id, e.id)
	}
	delete(e.regions, id)
	return nil
}

// SetHandler implements transport.Endpoint.
func (e *Endpoint) SetHandler(h transport.Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
}

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	return nil
}

// proc extracts the mandatory simulation process from ctx.
func proc(ctx context.Context) *des.Proc {
	p, ok := des.FromContext(ctx)
	if !ok {
		panic("simnet: context does not carry a des.Proc; use des.NewContext")
	}
	return p
}

func (e *Endpoint) checkOpen() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	return nil
}

// WriteRegion implements transport.Verbs (one-sided RDMA write).
func (e *Endpoint) WriteRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, data []byte) error {
	p := proc(ctx)
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(data) > transport.MaxFrameSize {
		return fmt.Errorf("%w: payload %d exceeds %d", transport.ErrFrameTooLarge, len(data), transport.MaxFrameSize)
	}
	if err := e.checkOpen(); err != nil {
		return err
	}
	p.Sleep(e.fabric.params.PerMessage)
	e.fabric.link(e.id, to).Transfer(p, int64(len(data)))
	dst, err := e.fabric.target(e.id, to)
	if err != nil {
		return err
	}
	return dst.applyWrite(region, offset, data)
}

func (e *Endpoint) applyWrite(region transport.RegionID, offset int64, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	buf, ok := e.regions[region]
	if !ok {
		return fmt.Errorf("%w: region %d on node %d", transport.ErrNoRegion, region, e.id)
	}
	if offset < 0 || offset+int64(len(data)) > int64(len(buf)) {
		return fmt.Errorf("%w: [%d,%d) in region of %d bytes",
			transport.ErrOutOfBounds, offset, offset+int64(len(data)), len(buf))
	}
	copy(buf[offset:], data)
	return nil
}

// ReadRegion implements transport.Verbs (one-sided RDMA read).
func (e *Endpoint) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	p := proc(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n > transport.MaxFrameSize {
		return nil, fmt.Errorf("%w: read of %d exceeds %d", transport.ErrFrameTooLarge, n, transport.MaxFrameSize)
	}
	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	p.Sleep(e.fabric.params.PerMessage)
	// Request message is tiny; response carries the payload.
	e.fabric.link(e.id, to).Transfer(p, 64)
	dst, err := e.fabric.target(e.id, to)
	if err != nil {
		return nil, err
	}
	data, err := dst.applyRead(region, offset, n)
	if err != nil {
		return nil, err
	}
	e.fabric.link(to, e.id).Transfer(p, int64(n))
	return data, nil
}

// ReadRegionInto implements transport.ScatterReader: the response payload
// lands directly in dst with no intermediate allocation, the simulated twin
// of scattering a READ completion into caller-registered memory.
func (e *Endpoint) ReadRegionInto(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	p := proc(ctx)
	if err := ctx.Err(); err != nil {
		return err
	}
	n := len(dst)
	if n > transport.MaxFrameSize {
		return fmt.Errorf("%w: read of %d exceeds %d", transport.ErrFrameTooLarge, n, transport.MaxFrameSize)
	}
	if err := e.checkOpen(); err != nil {
		return err
	}
	p.Sleep(e.fabric.params.PerMessage)
	// Request message is tiny; response carries the payload.
	e.fabric.link(e.id, to).Transfer(p, 64)
	src, err := e.fabric.target(e.id, to)
	if err != nil {
		return err
	}
	if err := src.applyReadInto(region, offset, dst); err != nil {
		return err
	}
	e.fabric.link(to, e.id).Transfer(p, int64(n))
	return nil
}

func (e *Endpoint) applyReadInto(region transport.RegionID, offset int64, dst []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	buf, ok := e.regions[region]
	if !ok {
		return fmt.Errorf("%w: region %d on node %d", transport.ErrNoRegion, region, e.id)
	}
	n := len(dst)
	if offset < 0 || offset+int64(n) > int64(len(buf)) {
		return fmt.Errorf("%w: [%d,%d) in region of %d bytes",
			transport.ErrOutOfBounds, offset, offset+int64(n), len(buf))
	}
	copy(dst, buf[offset:])
	return nil
}

func (e *Endpoint) applyRead(region transport.RegionID, offset int64, n int) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	buf, ok := e.regions[region]
	if !ok {
		return nil, fmt.Errorf("%w: region %d on node %d", transport.ErrNoRegion, region, e.id)
	}
	if offset < 0 || n < 0 || offset+int64(n) > int64(len(buf)) {
		return nil, fmt.Errorf("%w: [%d,%d) in region of %d bytes",
			transport.ErrOutOfBounds, offset, offset+int64(n), len(buf))
	}
	out := make([]byte, n)
	copy(out, buf[offset:])
	return out, nil
}

// Call implements transport.Verbs (two-sided send/receive RPC). The handler
// sees the caller's own payload slice, and its answer goes to the caller
// as is: the transport.Handler contract's hand-over, with the caller as the
// new owner.
func (e *Endpoint) Call(ctx context.Context, to transport.NodeID, payload []byte) ([]byte, error) {
	p := proc(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(payload) > transport.MaxFrameSize {
		return nil, fmt.Errorf("%w: payload %d exceeds %d", transport.ErrFrameTooLarge, len(payload), transport.MaxFrameSize)
	}
	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	p.Sleep(e.fabric.params.PerMessage)
	e.fabric.link(e.id, to).Transfer(p, int64(len(payload)))
	dst, err := e.fabric.target(e.id, to)
	if err != nil {
		return nil, err
	}
	dst.mu.Lock()
	h := dst.handler
	dst.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("%w: node %d", transport.ErrNoHandler, to)
	}
	// The handler runs on the remote CPU; its simulated cost is charged to
	// the calling process, which is blocked for the round trip anyway. The
	// caller's context rides along, carrying the des.Proc and trace state.
	resp, err := h(ctx, e.id, payload)
	if err != nil {
		return nil, err
	}
	e.fabric.link(to, e.id).Transfer(p, int64(len(resp)))
	return resp, nil
}
