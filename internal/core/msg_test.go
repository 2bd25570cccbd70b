package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"testing/quick"

	"godm/internal/des"
	"godm/internal/pagetable"
	"godm/internal/transport"
)

// reservationCases are the reserve/release messages the round-trip table
// checks and the fuzz target is seeded with: single-block and window-sized,
// plain, on-behalf and shard-tagged, keys and classes with high bits set.
var reservationCases = []struct {
	name    string
	owner   int32
	shard   shardInfo
	entries []reservation
	offsets []int64
}{
	{"single", 0, shardInfo{}, []reservation{{Key: 42, Class: 4096}}, []int64{8192}},
	{"single high bits", -2, shardInfo{}, []reservation{{Key: 1<<63 | 42, Class: -1 << 31}}, []int64{-1}},
	{"on behalf", 7, shardInfo{}, []reservation{{Key: 9, Class: 512}}, []int64{0}},
	{"shard", 0, shardInfo{idx: 5, k: 4, m: 2}, []reservation{{Key: 0xF00DFACE99887766, Class: 16384}}, []int64{1 << 40}},
	{"shard on behalf", 3, shardInfo{idx: 0xFF, k: 0xFE, m: 0xFD}, []reservation{{Key: 1, Class: 512}}, []int64{4096}},
	{"window", 0, shardInfo{}, []reservation{{Key: 1, Class: 512}, {Key: 1<<63 | 42, Class: 4096}, {Key: 7, Class: 2048}}, []int64{0, 4096, 1 << 40}},
	{"shard window", 0, shardInfo{idx: 1, k: 4, m: 2}, []reservation{{Key: 3, Class: 1024}, {Key: 4, Class: 1024}}, []int64{1024, 2048}},
}

// TestReservationRoundTrip drives every case through the reserve request,
// reserve reply and release request codecs.
func TestReservationRoundTrip(t *testing.T) {
	for _, tc := range reservationCases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := decodeReserveReq(encodeReserveReq(tc.owner, tc.shard, tc.entries))
			if err != nil {
				t.Fatal(err)
			}
			if req.Owner != tc.owner || req.Shard != tc.shard || req.count() != len(tc.entries) {
				t.Fatalf("reserve header = owner %d shard %+v count %d, want %d %+v %d",
					req.Owner, req.Shard, req.count(), tc.owner, tc.shard, len(tc.entries))
			}
			reply := newReserveResp(len(tc.entries))
			blocks := make([]block, len(tc.entries))
			for i, want := range tc.entries {
				if got := req.entry(i); got != want {
					t.Fatalf("reserve entry %d = %+v, want %+v", i, got, want)
				}
				reply.setOffset(i, tc.offsets[i])
				blocks[i] = block{node: 9, key: want.Key, offset: tc.offsets[i]}
			}
			back, err := decodeReserveResp(reply, len(tc.entries))
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

// TestReservationSizesPinned pins the on-wire size of the five one-block
// reservation messages. The simulated fabric charges len(payload)/bandwidth
// per Call, so a single-block message that grows by even a few bytes moves
// the last digit of cells in internal/exp/testdata/fig8.golden: the N = 1
// case of the entry-list verbs must cost exactly what the old single-block
// messages did.
func TestReservationSizesPinned(t *testing.T) {
	one := []reservation{{Key: 1, Class: 4096}}
	reply := newReserveResp(1)
	for _, tc := range []struct {
		name string
		msg  []byte
		want int
	}{
		{"plain reserve", encodeReserveReq(0, shardInfo{}, one), 17},
		{"shard reserve", encodeReserveReq(0, shardInfo{idx: 1, k: 4, m: 2}, one), 20},
		{"release", encodeReleaseReq([]block{{node: 2, key: 1, offset: 4096}}), 17},
		{"reserve reply", reply, 9},
		{"release reply", okResp(), 1},
	} {
		if len(tc.msg) != tc.want {
			t.Errorf("%s is %d bytes on the wire, want %d", tc.name, len(tc.msg), tc.want)
		}
	}
}

func TestReservationDecodeRejectsMalformed(t *testing.T) {
	reserve := encodeReserveReq(0, shardInfo{}, []reservation{{Key: 1, Class: 512}})
	shard := encodeReserveReq(0, shardInfo{idx: 1, k: 4, m: 2}, []reservation{{Key: 1, Class: 512}})
	release := encodeReleaseReq([]block{{key: 1, offset: 512}})
	untagged := append([]byte(nil), shard...)
	untagged[len(untagged)-2] = 0 // k = 0: not a stripe
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		msg    []byte
	}{
		{"bare reserve op", reserveErr, []byte{opAlloc}},
		{"reserve with no entries", reserveErr, reserve[:reserveHeaderBytes]},
		{"truncated reserve entry", reserveErr, reserve[:len(reserve)-1]},
		{"reserve with a stray byte", reserveErr, append(reserve[:len(reserve):len(reserve)], 0)},
		{"oversized reserve", reserveErr, make([]byte, reserveHeaderBytes+reserveEntryBytes*(maxBatchEntries+1))},
		{"shard reserve with only a tag", reserveErr, append([]byte{opAllocShard, 0, 0, 0, 0}, 1, 4, 2)},
		{"shard reserve without its tag", reserveErr, shard[:len(shard)-shardTagBytes]},
		{"shard tag with k = 0", reserveErr, untagged},
		{"bare release op", releaseErr, []byte{opFree}},
		{"truncated release entry", releaseErr, release[:len(release)-1]},
		{"oversized release", releaseErr, make([]byte, 1+releaseEntryBytes*(maxBatchEntries+1))},
	} {
		if tc.decode(tc.msg) == nil {
			t.Errorf("%s should fail to decode", tc.name)
		}
	}
	// Reserve replies: statuses map to errors, and an OK reply must carry one
	// offset per requested entry.
	if _, err := decodeReserveResp(noSpaceResp(), 3); !errors.Is(err, ErrRemoteFull) {
		t.Errorf("no-space reply err = %v, want ErrRemoteFull", err)
	}
	if _, err := decodeReserveResp(errorResp(errors.New("boom")), 3); !errors.Is(err, errRemote) {
		t.Errorf("error reply err = %v, want errRemote", err)
	}
	if _, err := decodeReserveResp(nil, 1); err == nil {
		t.Error("empty reply should fail")
	}
	if _, err := decodeReserveResp(newReserveResp(1), 2); err == nil {
		t.Error("reply with fewer offsets than entries should fail")
	}
}

func reserveErr(b []byte) error { _, err := decodeReserveReq(b); return err }
func releaseErr(b []byte) error { _, err := decodeReleaseReq(b); return err }

// FuzzReservationCodec feeds arbitrary bytes to the decoders that face the
// wire on the reserve/release path. Each must never panic, must re-encode
// whatever it accepted to the identical bytes, and — since entries are read
// in place — can never report more entries than the input has room for.
func FuzzReservationCodec(f *testing.F) {
	for _, tc := range reservationCases {
		f.Add(encodeReserveReq(tc.owner, tc.shard, tc.entries))
		blocks := make([]block, len(tc.entries))
		reply := newReserveResp(len(tc.entries))
		for i, e := range tc.entries {
			blocks[i] = block{key: e.Key, offset: tc.offsets[i]}
			reply.setOffset(i, tc.offsets[i])
		}
		f.Add(encodeReleaseReq(blocks))
		f.Add([]byte(reply))
	}
	f.Add(noSpaceResp())
	f.Add(errorResp(errors.New("boom")))
	f.Add([]byte{opAllocShard, 0, 0, 0, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if req, err := decodeReserveReq(in); err == nil && (in[0] == opAlloc || in[0] == opAllocShard) {
			if req.count() > len(in)/reserveEntryBytes {
				t.Fatalf("reserve: %d entries from %d bytes", req.count(), len(in))
			}
			entries := make([]reservation, req.count())
			for i := range entries {
				entries[i] = req.entry(i)
			}
			if out := encodeReserveReq(req.Owner, req.Shard, entries); !bytes.Equal(out, in) {
				t.Fatalf("reserve re-encodes to %x, want %x", out, in)
			}
		}
		if req, err := decodeReleaseReq(in); err == nil && in[0] == opFree {
			if req.count() > len(in)/reserveEntryBytes {
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
		if resp, err := decodeReserveResp(in, count); err == nil {
			if _, err := decodeReserveResp(in, count+1); err == nil {
				t.Fatalf("reply of %d bytes satisfied %d entries", len(in), count+1)
			}
			out := newReserveResp(count)
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
	st, err := decodeReply(encode(stOK, statsResp{FreeBytes: 777}, (*statsResp).fields), (*statsResp).fields)
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
		if _, err := vs.GetAt(ctx, 1, 4000, 200); err == nil {
			t.Error("expected error for out-of-range read")
		}
		if _, err := vs.GetAt(ctx, 1, -1, 10); err == nil {
			t.Error("expected error for negative offset")
		}
		got, err := vs.GetAt(ctx, 1, 100, 50)
		if err != nil || len(got) != 50 || got[0] != 7 {
			t.Errorf("GetAt = %v, %v", got, err)
		}
		if _, err := vs.GetAt(ctx, 99, 0, 1); !errors.Is(err, pagetable.ErrNotFound) {
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
		got, err := vs.GetAt(ctx, 1, 8, 16)
		if err != nil {
			t.Errorf("GetAt after partition: %v", err)
			return
		}
		if got[0] != 9 {
			t.Error("failover data mismatch")
		}
	})
}
