package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestReaderLatchesFirstShortRead(t *testing.T) {
	r := NewReader([]byte{1, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE, 9})
	if r.U8() != 1 || r.U16() != 2 || r.I64() != -2 || r.Err() != nil {
		t.Fatalf("in-bounds reads went wrong, err %v", r.Err())
	}
	if got := r.U32(); got != 0 || r.Err() != ErrShort {
		t.Fatalf("U32 with one byte left = %d, err %v", got, r.Err())
	}
	// The byte that was left is not handed to a later, narrower read.
	if got := r.U8(); got != 0 || len(r.Rest()) != 0 || r.Bytes(0) != nil {
		t.Fatalf("reads after the latch returned data: %d %v", got, r.Rest())
	}
	r = NewReader([]byte{1, 2, 3})
	if b := r.Bytes(2); !bytes.Equal(b, []byte{1, 2}) || cap(b) != 2 {
		t.Fatalf("Bytes(2) = %v cap %d, want [1 2] capped at its length", b, cap(b))
	}
	if r.Bytes(-1) != nil || r.Err() != ErrShort {
		t.Fatal("a negative length must latch")
	}
}

func TestCountFitsTheRemainder(t *testing.T) {
	for _, tc := range []struct {
		name             string
		in               []byte
		width, max, elem int
		want             int
		wantErr          bool
	}{
		{"fits exactly", []byte{0, 2, 1, 2, 3, 4}, 2, 10, 2, 2, false},
		{"one element too many", []byte{0, 3, 1, 2, 3, 4}, 2, 10, 2, 0, true},
		{"over max though it fits", []byte{0, 2, 1, 2}, 2, 1, 1, 0, true},
		{"zero needs no bytes", []byte{0, 0, 0, 0}, 4, 10, 8, 0, false},
		{"u32 claim with nothing behind it", []byte{0xFF, 0xFF, 0xFF, 0xFF}, 4, 1 << 40, 1 << 40, 0, true},
		{"prefix itself cut short", []byte{0}, 2, 10, 1, 0, true},
	} {
		r := NewReader(tc.in)
		if got := r.Count(tc.width, tc.max, tc.elem); got != tc.want || (r.Err() != nil) != tc.wantErr {
			t.Errorf("%s: Count = %d, err %v", tc.name, got, r.Err())
		}
	}
}

type inner struct {
	A int   // i32 on the wire
	B uint8 //
}

type outer struct {
	ID    int64
	On    bool
	Items []inner
}

func (in *inner) fields(w *Walk) { Field32(w, &in.A); Field8(w, &in.B) }

func (o *outer) fields(w *Walk) {
	Field64(w, &o.ID)
	w.Bool(&o.On)
	List(w, &o.Items, 3, (*inner).fields)
}

func TestWalkAppendsAndReadsOneLayout(t *testing.T) {
	v := outer{ID: -5, On: true, Items: []inner{{A: -2, B: 7}, {A: 1 << 20, B: 255}}}
	b := Append([]byte{0xAA}, &v, (*outer).fields)
	want := []byte{0xAA,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFB, 1,
		0, 0, 0, 2,
		0xFF, 0xFF, 0xFF, 0xFE, 7,
		0, 0x10, 0, 0, 255}
	if !bytes.Equal(b, want) {
		t.Fatalf("encoded\n%x, want\n%x", b, want)
	}
	r := NewReader(b[1:])
	if got := Read(&r, (*outer).fields); r.Err() != nil || len(r.Rest()) != 0 || !reflect.DeepEqual(got, v) {
		t.Fatalf("read back %+v, err %v, %d bytes left", got, r.Err(), len(r.Rest()))
	}
	// An empty list reads as nil, and a list over its max or past its input
	// is refused before it is sized.
	r = NewReader(Append(nil, &outer{}, (*outer).fields))
	if got := Read(&r, (*outer).fields); r.Err() != nil || got.Items != nil {
		t.Fatalf("empty list read as %+v, err %v", got.Items, r.Err())
	}
	pastInput := append([]byte(nil), want[1:]...)
	pastInput[12] = 3 // three items claimed, two present
	overMax := append(append([]byte(nil), want[1:]...), make([]byte, 10)...)
	overMax[12] = 4 // four items present, three allowed
	for name, in := range map[string][]byte{"past the input": pastInput, "over max": overMax} {
		r = NewReader(in)
		if got := Read(&r, (*outer).fields); r.Err() != ErrShort || got.Items != nil {
			t.Errorf("%s: read %+v, err %v", name, got.Items, r.Err())
		}
	}
}
