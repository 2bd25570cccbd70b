// Package wire is the one codec under godm's two-sided control plane: the
// core messages, the cluster map-sync payloads and the metric digests are all
// fixed-width big-endian fields, and every bounds decision a decoder makes is
// made here.
//
// Reader is a read cursor with a latched error: a read past the end returns
// zero and every later read does too, so a decoder reads straight through its
// layout and checks Err once. Walk visits a record's fields in wire order and
// either appends them or reads them, so a layout is written once, next to its
// struct, and the encoder and decoder cannot drift.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrShort is the latched error: the input ended before the layout did, or a
// field held a value the layout does not allow.
var ErrShort = errors.New("wire: short or malformed message")

// Reader is a bounds-checked cursor over one message.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err reports the latched error, nil while every read so far was in bounds.
func (r *Reader) Err() error { return r.err }

// Fail latches ErrShort; decoders call it for a value the layout forbids.
func (r *Reader) Fail() {
	r.b, r.err = nil, ErrShort
}

// Rest returns the bytes not yet read (none once an error is latched).
func (r *Reader) Rest() []byte { return r.b }

// Bytes reads the next n bytes in place, nil if fewer remain.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.Fail()
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

var zeros [8]byte

// fixed is Bytes for the fixed-width reads: zeros instead of nil, so the
// caller can index the result.
func (r *Reader) fixed(n int) []byte {
	if b := r.Bytes(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (r *Reader) U8() uint8   { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.BigEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.BigEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.BigEndian.Uint64(r.fixed(8)) }
func (r *Reader) I64() int64  { return int64(r.U64()) }

// Bool reads one byte; only 1 is true.
func (r *Reader) Bool() bool { return r.U8() == 1 }

// Count reads a length prefix of prefixWidth bytes (2 or 4) and accepts it
// only when it is at most max and count x minElemBytes fits the bytes that
// remain: a corrupt prefix can never size an allocation past its input.
func (r *Reader) Count(prefixWidth, max, minElemBytes int) int {
	var n uint64
	if prefixWidth == 2 {
		n = uint64(r.U16())
	} else {
		n = uint64(r.U32())
	}
	if n > uint64(max) || n*uint64(minElemBytes) > uint64(len(r.b)) {
		r.Fail()
		return 0
	}
	return int(n)
}

// Walk visits the fields of a record in wire order: appending them when it
// was started by Append, reading them when started by Read.
type Walk struct {
	b []byte
	r *Reader
}

// Append appends v's fields to b.
func Append[T any](b []byte, v *T, fields func(*T, *Walk)) []byte {
	w := Walk{b: b}
	fields(v, &w)
	return w.b
}

// Read reads a T's fields from r, leaving r after them.
func Read[T any](r *Reader, fields func(*T, *Walk)) T {
	var v T
	fields(&v, &Walk{r: r})
	return v
}

// Reading reports whether the walk is filling the record in. A walk that
// appends must not write to its record, which other goroutines may be
// encoding too.
func (w *Walk) Reading() bool { return w.r != nil }

// Fail marks the record being read as malformed; appending never fails.
func (w *Walk) Fail() {
	if w.Reading() {
		w.r.Fail()
	}
}

// Int is any integer field type; the wire width is chosen by the Field
// function, not by the Go type.
type Int interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Field8 visits a one-byte field.
func Field8[T Int](w *Walk, p *T) {
	if w.r != nil {
		*p = T(w.r.U8())
	} else {
		w.b = append(w.b, byte(*p))
	}
}

// Field32 visits a four-byte field; a wider signed *p is sign-extended.
func Field32[T Int](w *Walk, p *T) {
	if w.r != nil {
		*p = T(int32(w.r.U32()))
	} else {
		w.b = binary.BigEndian.AppendUint32(w.b, uint32(*p))
	}
}

// Field64 visits an eight-byte field.
func Field64[T Int](w *Walk, p *T) {
	if w.r != nil {
		*p = T(w.r.U64())
	} else {
		w.b = binary.BigEndian.AppendUint64(w.b, uint64(*p))
	}
}

// Bool visits a one-byte flag, 1 for true.
func (w *Walk) Bool(p *bool) {
	if w.r != nil {
		*p = w.r.Bool()
	} else if *p {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// List visits a counted list: [u32 n] then each element's fields, n held to
// max and to the Count rule. The least an element can take is the encoding of
// its zero value, so no caller states a size that could drift from the
// layout. An empty list reads as nil.
func List[T any](w *Walk, s *[]T, max int, fields func(*T, *Walk)) {
	if w.r != nil {
		minElemBytes := len(Append(nil, new(T), fields))
		if n := w.r.Count(4, max, minElemBytes); n > 0 {
			*s = make([]T, n)
		}
	} else {
		w.b = binary.BigEndian.AppendUint32(w.b, uint32(len(*s)))
	}
	for i := range *s {
		fields(&(*s)[i], w)
	}
}
