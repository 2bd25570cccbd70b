package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"godm/internal/des"
	"godm/internal/pagetable"
	"godm/internal/replication"
	"godm/internal/transport"
	"godm/internal/wire/wiretest"
)

// reservationCases are the put/release messages the round-trip table checks
// and the fuzz target is seeded with: single-block and window-sized, plain,
// on-behalf and shard-tagged, with and without displaced blocks, keys and
// classes with high bits set.
var reservationCases = []struct {
	name    string
	put     putParts
	offsets []int64
}{
	{"single", putParts{Entries: []putEntry{{Key: 42, Class: 4096, Len: 5}}, Payload: []byte("hello")}, []int64{8192}},
	{"single high bits", putParts{Owner: -2, Entries: []putEntry{{Key: 1<<63 | 42, Class: 1<<31 - 1, Len: 1}}, Payload: []byte{0xFF}}, []int64{-1}},
	{"on behalf", putParts{Owner: 7, Entries: []putEntry{{Key: 9, Class: 512, Len: 2}}, Payload: []byte{1, 2}}, []int64{0}},
	{"shard", putParts{Shard: replication.Shard{Idx: 5, K: 4, M: 2}, Entries: []putEntry{{Key: 0xF00DFACE99887766, Class: 16384, Len: 3}}, Payload: []byte{7, 8, 9}}, []int64{1 << 40}},
	{"shard overwrite on behalf", putParts{Owner: 3, Shard: replication.Shard{Idx: 0xFF, K: 0xFE, M: 0xFD},
		Entries: []putEntry{{Key: 1, Class: 512, Len: 1}}, Releases: []block{{key: 1, offset: 1 << 40}}, Payload: []byte{0}}, []int64{4096}},
	{"window", putParts{Entries: []putEntry{{Key: 1, Class: 512, Len: 2}, {Key: 1<<63 | 42, Class: 4096, Len: 0}, {Key: 7, Class: 2048, Len: 3}},
		Releases: []block{{key: 7, offset: 512}, {key: 1, offset: -1}}, Payload: []byte{1, 2, 3, 4, 5}}, []int64{0, 4096, 1 << 40}},
	{"empty payloads", putParts{Entries: []putEntry{{Key: 3, Class: 1024}, {Key: 4, Class: 1024}}}, []int64{1024, 2048}},
}

// TestReservationRoundTrip drives every case through the put request, put
// reply and release request codecs.
func TestReservationRoundTrip(t *testing.T) {
	for _, tc := range reservationCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := decPutReq(putMessage(tc.put))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.put) {
				t.Fatalf("put decodes to\n%+v, want\n%+v", got, tc.put)
			}
			reply := newPutResp(len(tc.offsets))
			blocks := make([]block, len(tc.offsets))
			for i, off := range tc.offsets {
				reply.setOffset(i, off)
				blocks[i] = block{node: 9, key: tc.put.Entries[i].Key, offset: off}
			}
			back, err := decodePutResp(reply, len(tc.offsets))
			if err != nil {
				t.Fatal(err)
			}
			rel, err := decodeReleaseReq(encodeReleaseReq(blocks))
			if err != nil {
				t.Fatal(err)
			}
			if rel.count() != len(blocks) {
				t.Fatalf("release count = %d, want %d", rel.count(), len(blocks))
			}
			for i, b := range blocks {
				if got := back.offset(i); got != tc.offsets[i] {
					t.Fatalf("reply offset %d = %d, want %d", i, got, tc.offsets[i])
				}
				if key, off := rel.entry(i); key != b.key || off != b.offset {
					t.Fatalf("release entry %d = (%d, %d), want (%d, %d)", i, key, off, b.key, b.offset)
				}
			}
		})
	}
}

// TestReservationSizesPinned pins the on-wire size of the one-block put and
// release messages. The simulated fabric charges len(payload)/bandwidth per
// Call, so a single-block message that grows by even a few bytes moves the
// last digit of cells in internal/exp/testdata/fig8.golden; the goldens were
// re-recorded once, on purpose, when the put verb replaced reserve + one-sided
// write (one message per swap-out instead of two), and these sizes are what
// they were recorded with.
func TestReservationSizesPinned(t *testing.T) {
	one := []putEntry{{Key: 1, Class: 4096, Len: 4096}}
	old := []block{{node: 2, key: 1, offset: 4096}}
	for _, tc := range []struct {
		name string
		msg  []byte
		want int
	}{
		{"put header, plain or shard", encodePutReq(0, replication.Shard{Idx: 1, K: 4, M: 2}, one, nil), 32},
		{"put header displacing one block", encodePutReq(0, replication.Shard{}, one, old), 48},
		{"release", encodeReleaseReq(old), 17},
		{"put reply", newPutResp(1), 9},
		{"release reply", okResp(), 1},
	} {
		if len(tc.msg) != tc.want {
			t.Errorf("%s is %d bytes on the wire, want %d", tc.name, len(tc.msg), tc.want)
		}
	}
}

func TestReservationDecodeRejectsMalformed(t *testing.T) {
	put := putMessage(reservationCases[0].put)
	window := putMessage(reservationCases[5].put)
	release := encodeReleaseReq([]block{{key: 1, offset: 512}})
	patched := func(msg []byte, at int, v byte) []byte {
		out := append([]byte(nil), msg...)
		out[at] = v
		return out
	}
	oversized := make([]byte, putHeaderBytes+putEntryBytes*(maxBatchEntries+1)) // well-formed but for its count
	oversized[0] = opPut
	binary.BigEndian.PutUint32(oversized[8:12], maxBatchEntries+1)
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		msg    []byte
	}{
		{"bare put op", putErr, []byte{opPut}},
		{"put with no entries", putErr, patched(put[:putHeaderBytes], 11, 0)},
		{"put header only", putErr, put[:putHeaderBytes]},
		{"truncated put entry", putErr, put[:putHeaderBytes+putEntryBytes-1]},
		{"put missing a payload byte", putErr, put[:len(put)-1]},
		{"put with a stray payload byte", putErr, append(put[:len(put):len(put)], 0)},
		{"put payload longer than its class", putErr, patched(put, putHeaderBytes+8+2, 0)}, // class 4096 -> 0
		{"put with a negative length", putErr, patched(put, putHeaderBytes+12, 0x80)},
		{"put claiming more entries than it carries", putErr, patched(put, 11, 2)},
		{"put claiming more releases than it carries", putErr, patched(window, 15, 0xFF)},
		{"oversized put", putErr, oversized},
		{"bare release op", releaseErr, []byte{opFree}},
		{"truncated release entry", releaseErr, release[:len(release)-1]},
		{"oversized release", releaseErr, make([]byte, 1+releaseEntryBytes*(maxBatchEntries+1))},
	} {
		if tc.decode(tc.msg) == nil {
			t.Errorf("%s should fail to decode", tc.name)
		}
	}
	// Put replies: statuses map to errors, and an OK reply must carry one
	// offset per entry.
	if _, err := decodePutResp(noSpaceResp(), 3); !errors.Is(err, ErrRemoteFull) {
		t.Errorf("no-space reply err = %v, want ErrRemoteFull", err)
	}
	if _, err := decodePutResp(errorResp(errors.New("boom")), 3); !errors.Is(err, errRemote) {
		t.Errorf("error reply err = %v, want errRemote", err)
	}
	if _, err := decodePutResp(nil, 1); err == nil {
		t.Error("empty reply should fail")
	}
	if _, err := decodePutResp(newPutResp(1), 2); err == nil {
		t.Error("reply with fewer offsets than entries should fail")
	}
}

func putErr(b []byte) error     { _, err := decodePutReq(b); return err }
func releaseErr(b []byte) error { _, err := decodeReleaseReq(b); return err }

// TestPutRejectedBeforeAnyBlockIsAllocated: a put whose lengths overrun (or
// fall short of) the frame is refused in-band by the decoder, so the donor's
// pool is untouched — the handler never sees it.
func TestPutRejectedBeforeAnyBlockIsAllocated(t *testing.T) {
	tc := newTestCluster(t, 1, smallConfig)
	n := tc.nodes[0]
	good := putMessage(putParts{Entries: []putEntry{{Key: 1, Class: 4096, Len: 4}, {Key: 2, Class: 4096, Len: 4}}, Payload: []byte("aaaabbbb")})
	for name, msg := range map[string][]byte{
		"second entry overruns the frame": good[:len(good)-1],
		"frame longer than the entries":   append(good[:len(good):len(good)], 0),
	} {
		resp, err := n.handleCall(context.Background(), 2, msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkOKResp(resp); !errors.Is(err, errRemote) {
			t.Errorf("%s: reply err = %v, want an in-band refusal", name, err)
		}
		if st := n.recv.Stats(); st.LiveBlocks != 0 || n.HostsRemoteKey(2, 1) {
			t.Errorf("%s: refused put left %d live blocks", name, st.LiveBlocks)
		}
	}
	if resp, _ := n.handleCall(context.Background(), 2, good); resp[0] != stOK {
		t.Fatalf("well-formed put refused: %v", resp)
	}
	if st := n.recv.Stats(); st.LiveBlocks != 2 {
		t.Fatalf("well-formed put parked %d blocks, want 2", st.LiveBlocks)
	}
}

// FuzzReservationCodec feeds arbitrary bytes to the decoders that face the
// wire on the put/release path. Each must never panic, must re-encode
// whatever it accepted to the identical bytes, must allocate in proportion to
// its input, and — since entries are read in place — can never report more
// entries or payload than the input has room for. A put the decoder accepts
// is also handed to a donor, which must answer in-band.
func FuzzReservationCodec(f *testing.F) {
	for _, tc := range reservationCases {
		f.Add(putMessage(tc.put))
		blocks := make([]block, len(tc.offsets))
		reply := newPutResp(len(tc.offsets))
		for i, off := range tc.offsets {
			blocks[i] = block{key: tc.put.Entries[i].Key, offset: off}
			reply.setOffset(i, off)
		}
		f.Add(encodeReleaseReq(blocks))
		f.Add([]byte(reply))
	}
	f.Add(noSpaceResp())
	f.Add(errorResp(errors.New("boom")))
	f.Add(encodePutReq(0, replication.Shard{}, []putEntry{{Key: 1, Class: 512, Len: 512}}, nil)) // lengths overrun the frame
	f.Fuzz(func(t *testing.T, in []byte) {
		var (
			req putReq
			err error
		)
		wiretest.CheckAllocBound(t, len(in), func() { req, err = decodePutReq(in) })
		if err == nil && in[0] == opPut {
			if req.count() > len(in)/putEntryBytes || req.releases.count() > len(in)/releaseEntryBytes || len(req.payload) > len(in) {
				t.Fatalf("put: %d entries, %d releases, %d payload bytes from %d bytes", req.count(), req.releases.count(), len(req.payload), len(in))
			}
			parts, _ := decPutReq(in)
			if out := putMessage(parts.(putParts)); !bytes.Equal(out, in) {
				t.Fatalf("put re-encodes to %x, want %x", out, in)
			}
			tc := newTestCluster(t, 1, smallConfig)
			if resp, err := tc.nodes[0].handleCall(context.Background(), 2, in); err != nil || len(resp) == 0 {
				t.Fatalf("donor answered an accepted put out of band: %v, %v", resp, err)
			}
		}
		if req, err := decodeReleaseReq(in); err == nil && in[0] == opFree {
			if req.count() > len(in)/releaseEntryBytes {
				t.Fatalf("release: %d entries from %d bytes", req.count(), len(in))
			}
			blocks := make([]block, req.count())
			for i := range blocks {
				blocks[i].key, blocks[i].offset = req.entry(i)
			}
			if out := encodeReleaseReq(blocks); !bytes.Equal(out, in) {
				t.Fatalf("release re-encodes to %x, want %x", out, in)
			}
		}
		// The owner decodes a reply knowing how many entries it asked for;
		// the largest count the reply can satisfy must decode, one more must
		// not, and the accepted offsets must rebuild the same bytes.
		count := (len(in) - 1) / offsetBytes
		if resp, err := decodePutResp(in, count); err == nil {
			if _, err := decodePutResp(in, count+1); err == nil {
				t.Fatalf("reply of %d bytes satisfied %d entries", len(in), count+1)
			}
			out := newPutResp(count)
			for i := 0; i < count; i++ {
				out.setOffset(i, resp.offset(i))
			}
			if !bytes.Equal(out, in[:len(out)]) {
				t.Fatalf("reply re-encodes to %x, want %x", out, in[:len(out)])
			}
		}
	})
}

func TestHeartbeatAndStatsRoundTrip(t *testing.T) {
	hb, err := decodeHeartbeatReq(encodeHeartbeatReq(heartbeatReq{FreeBytes: 12345}))
	if err != nil || hb.FreeBytes != 12345 {
		t.Fatalf("heartbeat round trip: %+v, %v", hb, err)
	}
	st, err := decodeBody(encode(stOK, statsResp{FreeBytes: 777}, (*statsResp).fields), fieldsOf((*statsResp).fields))
	if err != nil || st.FreeBytes != 777 {
		t.Fatalf("stats round trip: %+v, %v", st, err)
	}
	ev, _, err := decode(encode(opEvicted, evictedReq{Key: 99}, (*evictedReq).fields)[1:], (*evictedReq).fields)
	if err != nil || ev.Key != 99 {
		t.Fatalf("evicted round trip: %+v, %v", ev, err)
	}
}

func TestCheckOKResp(t *testing.T) {
	if _, err := checkOKResp(okResp()); err != nil {
		t.Fatal(err)
	}
	if _, err := checkOKResp(noSpaceResp()); !errors.Is(err, ErrRemoteFull) {
		t.Fatalf("err = %v", err)
	}
	if _, err := checkOKResp(errorResp(errors.New("x"))); err == nil {
		t.Fatal("expected error")
	}
	if _, err := checkOKResp(nil); err == nil {
		t.Fatal("expected error for empty")
	}
}

// TestHandleCallNeverPanicsOnGarbage fuzzes the control-plane dispatcher —
// a malicious or corrupt peer must get an error response, not a crash.
func TestHandleCallNeverPanicsOnGarbage(t *testing.T) {
	tc := newTestCluster(t, 1, smallConfig)
	node := tc.nodes[0]
	// Dispatch inside a sim proc: valid-but-unlucky frames (e.g. a bare
	// opDecommission byte) legitimately issue nested fabric calls, which
	// the simulated network only allows from a des process.
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		f := func(payload []byte) bool {
			resp, err := node.handleCall(ctx, 2, payload)
			// The handler reports protocol errors in-band.
			return err == nil && len(resp) >= 1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
}

func TestGetAtBoundsChecks(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 0)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{7}, 4096)
		if err := vs.PutShared(1, data, 4096, 4096); err != nil {
			t.Errorf("PutShared: %v", err)
			return
		}
		if _, err := getAt(ctx, vs, 1, 4000, 200); err == nil {
			t.Error("expected error for out-of-range read")
		}
		if _, err := getAt(ctx, vs, 1, -1, 10); err == nil {
			t.Error("expected error for negative offset")
		}
		got, err := getAt(ctx, vs, 1, 100, 50)
		if err != nil || len(got) != 50 || got[0] != 7 {
			t.Errorf("GetAt = %v, %v", got, err)
		}
		if _, err := getAt(ctx, vs, 99, 0, 1); !errors.Is(err, pagetable.ErrNotFound) {
			t.Errorf("missing entry err = %v", err)
		}
	})
}

func TestGetAtRemoteFailsOver(t *testing.T) {
	tc := newTestCluster(t, 4, smallConfig)
	vs, _ := tc.nodes[0].AddServer("vm0", 0)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		data := bytes.Repeat([]byte{9}, 4096)
		if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
			t.Errorf("PutRemote: %v", err)
			return
		}
		loc, _ := vs.Location(1)
		tc.fabric.Partition(1, transport.NodeID(loc.Primary))
		got, err := getAt(ctx, vs, 1, 8, 16)
		if err != nil {
			t.Errorf("GetAt after partition: %v", err)
			return
		}
		if got[0] != 9 {
			t.Error("failover data mismatch")
		}
	})
}
