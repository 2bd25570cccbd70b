package slab

import (
	"fmt"
)

// NewPoolOver returns a pool whose slabs are carved out of the caller's
// contiguous buffer instead of private allocations. This is how the
// cluster-wide receive buffer pool is built: the buffer is an RDMA-registered
// memory region, so remote peers can address any block by its global offset
// within the region while the pool manages allocation locally.
//
// The buffer length must be a multiple of the slab size; the pool's byte
// budget is fixed at len(buf).
func NewPoolOver(name string, buf []byte, opts ...Option) (*Pool, error) {
	p, err := NewPool(name, int64(len(buf)), opts...)
	if err != nil {
		return nil, err
	}
	if len(buf) == 0 || len(buf)%p.slabSize != 0 {
		return nil, fmt.Errorf("slab: backing buffer of %d bytes is not a positive multiple of slab size %d", len(buf), p.slabSize)
	}
	p.backing = buf
	p.baseSlab = map[int]*slabRegion{}
	return p, nil
}

// GlobalOffset translates a handle from a backed pool into the byte offset of
// its block within the backing buffer, the address a remote peer uses for
// one-sided access.
func (p *Pool) GlobalOffset(h Handle) (int64, error) {
	if p.backing == nil {
		return 0, fmt.Errorf("slab: pool %s has no backing buffer", p.name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s, err := p.validate(h)
	if err != nil {
		return 0, err
	}
	return int64(s.base) + int64(h.Offset), nil
}

// HandleAt reverse-maps a global offset in the backing buffer to the live
// handle covering it, as needed when a remote peer names a block by offset.
// The base→slab index makes this O(1) regardless of slab count.
func (p *Pool) HandleAt(globalOff int64) (Handle, error) {
	if p.backing == nil {
		return Handle{}, fmt.Errorf("slab: pool %s has no backing buffer", p.name)
	}
	if globalOff < 0 || globalOff >= int64(len(p.backing)) {
		return Handle{}, fmt.Errorf("%w: offset %d outside any slab", ErrBadHandle, globalOff)
	}
	base := int(globalOff) - int(globalOff)%p.slabSize
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.baseSlab[base]
	if !ok {
		return Handle{}, fmt.Errorf("%w: offset %d outside any slab", ErrBadHandle, globalOff)
	}
	off := int(globalOff) - base
	off -= off % s.class
	if i := off / s.class; i >= s.blocks || s.isFree(i) {
		return Handle{}, fmt.Errorf("%w: offset %d not allocated", ErrBadHandle, globalOff)
	}
	return Handle{SlabID: s.id, Offset: off, Class: s.class}, nil
}
