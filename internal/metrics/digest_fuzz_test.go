package metrics

import (
	"errors"
	"reflect"
	"testing"

	"godm/internal/wire/wiretest"
)

// TestDigestCountPrefixCannotDriveAllocation: a length prefix is honoured only
// when that many minimum-size elements fit the bytes behind it, so two bytes
// claiming 4096 contributors (or names, or histogram bounds) are refused
// before anything is sized from them.
func TestDigestCountPrefixCannotDriveAllocation(t *testing.T) {
	explicitBounds := append(AppendDigest(nil, NewDigest())[:4], 0, 1, 0, histSchemaExplicit, 0x10, 0x00)
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"digest set", func() error { _, _, err := DecodeDigestSet([]byte{0x10, 0x00}); return err }},
		{"digest", func() error { _, _, err := DecodeDigest([]byte{0x10, 0x00}); return err }},
		{"explicit histogram bounds", func() error { _, _, err := DecodeDigest(explicitBounds); return err }},
	} {
		var err error
		if got := wiretest.AllocBytes(func() { err = tc.decode() }); got >= 1<<10 {
			t.Errorf("%s: a bare count prefix allocated %d bytes", tc.name, got)
		}
		if !errors.Is(err, ErrBadDigest) {
			t.Errorf("%s: err = %v, want ErrBadDigest", tc.name, err)
		}
	}
}

// FuzzDigestCodec feeds arbitrary bytes to the digest-set decoder every
// heartbeat and cluster-view reply goes through. It must never panic, must
// allocate in proportion to its input, and whatever it accepts must survive
// an encode/decode round trip unchanged.
func FuzzDigestCodec(f *testing.F) {
	for _, m := range wiretest.ReadGolden(f, "../core/testdata/control_golden.txt") {
		switch m.Name {
		case "req/heartbeat-digests":
			f.Add(m.Bytes[1+8:])
		case "resp/cluster":
			f.Add(m.Bytes[1:])
		}
	}
	f.Add([]byte{0x10, 0x00})
	f.Fuzz(func(t *testing.T, in []byte) {
		var (
			set []NodeDigest
			err error
		)
		wiretest.CheckAllocBound(t, len(in), func() { set, _, err = DecodeDigestSet(in) })
		if err != nil {
			if !errors.Is(err, ErrBadDigest) {
				t.Fatalf("err = %v, want ErrBadDigest", err)
			}
			return
		}
		again, rest, err := DecodeDigestSet(AppendDigestSet(nil, set))
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded set decodes with err %v, %d bytes left", err, len(rest))
		}
		if !reflect.DeepEqual(again, set) {
			t.Fatalf("round trip changed the set:\n%+v\n%+v", set, again)
		}
	})
}
