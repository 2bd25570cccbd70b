package cluster

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"godm/internal/wire/wiretest"
)

// TestSyncCountPrefixCannotDriveAllocation: every list count in a sync payload
// is held to what the bytes behind it can carry, so a header claiming a
// million changes, nodes, leaders or deltas is refused before a slice is sized
// from it.
func TestSyncCountPrefixCannotDriveAllocation(t *testing.T) {
	claim := []byte{0x00, 0x10, 0x00, 0x00} // u32 count 1<<20, nothing behind it
	header := AppendDelta(nil, Delta{Epoch: 1})
	header = header[:len(header)-4] // a delta or snapshot up to its first count
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		msg    []byte
	}{
		{"delta changes", func(b []byte) error { _, _, err := DecodeDelta(b); return err }, append(header[:len(header):len(header)], claim...)},
		{"snapshot nodes", func(b []byte) error { _, _, err := DecodeSnapshot(b); return err }, append(header[:len(header):len(header)], claim...)},
		{"snapshot leaders", func(b []byte) error { _, _, err := DecodeSnapshot(b); return err }, append(AppendDelta(nil, Delta{}), claim...)},
		{"response deltas", func(b []byte) error { _, _, err := DecodeSyncResponse(b); return err }, append(AppendSyncRequest(nil, SyncRequest{})[:8], append([]byte{syncKindDeltas}, claim...)...)},
	} {
		var err error
		if got := wiretest.AllocBytes(func() { err = tc.decode(tc.msg) }); got >= 1<<10 {
			t.Errorf("%s: a bare count prefix allocated %d bytes", tc.name, got)
		}
		if !errors.Is(err, ErrBadSync) {
			t.Errorf("%s: err = %v, want ErrBadSync", tc.name, err)
		}
	}
}

// FuzzSyncCodec feeds arbitrary bytes to the map-sync reply decoder. It must
// never panic, must allocate in proportion to its input, and whatever it
// accepts must survive an encode/decode round trip unchanged.
func FuzzSyncCodec(f *testing.F) {
	for _, m := range wiretest.ReadGolden(f, "../core/testdata/control_golden.txt") {
		if strings.HasPrefix(m.Name, "resp/mapsync-") {
			f.Add(m.Bytes[1:])
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var (
			resp SyncResponse
			err  error
		)
		wiretest.CheckAllocBound(t, len(in), func() { resp, _, err = DecodeSyncResponse(in) })
		if err != nil {
			if !errors.Is(err, ErrBadSync) {
				t.Fatalf("err = %v, want ErrBadSync", err)
			}
			return
		}
		again, rest, err := DecodeSyncResponse(AppendSyncResponse(nil, resp))
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded response decodes with err %v, %d bytes left", err, len(rest))
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("round trip changed the response:\n%+v\n%+v", resp, again)
		}
	})
}
