package slab

import (
	"bytes"
	"errors"
	"testing"
)

func TestBackedPoolWritesLandInBuffer(t *testing.T) {
	buf := make([]byte, 8192)
	p, err := NewPoolOver("recv", buf, WithSlabSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(h, []byte("remote page")); err != nil {
		t.Fatal(err)
	}
	off, err := p.GlobalOffset(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[off:off+11], []byte("remote page")) {
		t.Fatalf("buffer at %d = %q", off, buf[off:off+11])
	}
}

func TestBackedPoolValidation(t *testing.T) {
	if _, err := NewPoolOver("x", make([]byte, 100), WithSlabSize(4096)); err == nil {
		t.Fatal("expected error for non-multiple buffer")
	}
	if _, err := NewPoolOver("x", nil, WithSlabSize(4096)); err == nil {
		t.Fatal("expected error for empty buffer")
	}
	if _, err := NewPoolOver("x", make([]byte, 8192), WithSlabSize(4096), WithShards(2)); err == nil {
		t.Fatal("expected error for a pool of more than one lock")
	}
}

func TestBackedPoolBudgetIsBufferSize(t *testing.T) {
	buf := make([]byte, 8192)
	p, err := NewPoolOver("recv", buf, WithSlabSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(4096); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestBackedPoolSlotRecycledAfterEviction(t *testing.T) {
	buf := make([]byte, 4096)
	p, err := NewPoolOver("recv", buf, WithSlabSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := p.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	off1, _ := p.GlobalOffset(h1)
	if _, err := p.EvictLRU(); err != nil {
		t.Fatal(err)
	}
	h2, err := p.Alloc(4096)
	if err != nil {
		t.Fatalf("alloc after eviction: %v", err)
	}
	off2, _ := p.GlobalOffset(h2)
	if off1 != off2 {
		t.Fatalf("slot not recycled: %d vs %d", off1, off2)
	}
}

func TestGlobalOffsetUnbackedPool(t *testing.T) {
	p, _ := NewPool("plain", 8192, WithSlabSize(4096))
	h, _ := p.Alloc(4096)
	if _, err := p.GlobalOffset(h); err == nil {
		t.Fatal("expected error for unbacked pool")
	}
	if _, err := p.HandleAt(0); err == nil {
		t.Fatal("expected error for unbacked pool")
	}
}

func TestHandleAtRoundTrip(t *testing.T) {
	buf := make([]byte, 16384)
	p, err := NewPoolOver("recv", buf, WithSlabSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	var handles []Handle
	for i := 0; i < 6; i++ {
		h, err := p.Alloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		off, err := p.GlobalOffset(h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.HandleAt(off)
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("HandleAt(%d) = %+v, want %+v", off, got, h)
		}
		// Interior offsets also resolve to the covering block.
		got, err = p.HandleAt(off + 100)
		if err != nil || got != h {
			t.Fatalf("interior HandleAt = %+v, %v", got, err)
		}
	}
}

func TestHandleAtFreeBlock(t *testing.T) {
	buf := make([]byte, 4096)
	p, _ := NewPoolOver("recv", buf, WithSlabSize(4096))
	h, _ := p.Alloc(2048)
	off, _ := p.GlobalOffset(h)
	_ = p.Free(h)
	if _, err := p.HandleAt(off); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("err = %v, want ErrBadHandle", err)
	}
	if _, err := p.HandleAt(999999); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("out-of-range err = %v, want ErrBadHandle", err)
	}
}
