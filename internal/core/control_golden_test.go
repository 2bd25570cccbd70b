package core

import (
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/metrics"
	"godm/internal/replication"
	"godm/internal/wire"
	"godm/internal/wire/wiretest"
)

const controlGolden = "testdata/control_golden.txt"

var updateGolden = flag.Bool("update", false, "rewrite "+controlGolden+" from the current encoders")

// goldenCase is one control-plane message: what the encoder produces, the
// decoder that faces it on the other side, and what that decoder must return.
type goldenCase struct {
	name   string
	msg    []byte
	decode func([]byte) (any, error)
	want   any
	// wantErr, for a refusal reply: decoding the whole message fails with it.
	wantErr error
	// okPrefix marks the strict prefixes that are themselves valid, shorter
	// messages (a heartbeat without its digest set, a shorter metrics text);
	// every other strict prefix must fail to decode.
	okPrefix func(n int) bool
}

func goldenDigests() []metrics.NodeDigest {
	lat := metrics.NewLatencyHistogram()
	for _, us := range []int{3, 40, 40, 900} {
		lat.Observe(time.Duration(us) * time.Microsecond)
	}
	d1 := metrics.NewDigest()
	d1.Counters["core/remote_allocs"] = 7
	d1.Counters["core/op_get_good"] = 4
	d1.Gauges["core/recv_free_bytes"] = 64 << 20
	d1.Hists["core/op_get_latency"] = lat.Snapshot()
	d2 := metrics.NewDigest()
	d2.Counters["core/remote_allocs"] = -1
	d2.Hists["x/custom"] = metrics.HistogramSnapshot{
		Bounds: []time.Duration{time.Millisecond, 10 * time.Millisecond},
		Counts: []int64{2, 0, 1},
		Count:  3, Sum: 30 * time.Millisecond, Min: time.Millisecond, Max: 20 * time.Millisecond,
	}
	return []metrics.NodeDigest{{Node: 2, Seq: 7, Age: 1, D: d1}, {Node: 5, Seq: 1 << 40, Age: 0, D: d2}}
}

func goldenCases() []goldenCase {
	digests := goldenDigests()
	delta := cluster.Delta{
		Epoch: 12, Groups: 2, Root: 4, RootOK: true, LeadersChanged: true,
		Changes: []cluster.Change{
			{State: cluster.NodeState{ID: 3, FreeBytes: 1 << 30, Alive: true, Group: 1, Gver: 9}},
			{State: cluster.NodeState{ID: -7, Group: -1}, Left: true},
		},
		Leaders: []cluster.GroupLeader{{Group: 0, Leader: 4}, {Group: 1, Leader: 3}},
	}
	snap := cluster.MapSnapshot{
		Epoch: 40, Groups: 1, Root: 2, RootOK: true,
		Nodes: []cluster.NodeState{
			{ID: 1, FreeBytes: 100, Alive: true, Gver: 1},
			{ID: 2, FreeBytes: 1 << 40, Alive: true, Gver: 1},
			{ID: 3, Alive: false, Gver: 2},
		},
		Leaders: []cluster.GroupLeader{{Group: 0, Leader: 2}},
	}
	reply := newPutResp(2)
	reply.setOffset(0, 8192)
	reply.setOffset(1, 1<<40)
	// A two-shard window that displaces one old block: every section present.
	shardPut := putParts{
		Shard:    replication.Shard{Idx: 1, K: 4, M: 2},
		Entries:  []putEntry{{Key: 1<<63 | 9, Class: 512, Len: 2}, {Key: 10, Class: 1024, Len: 0}},
		Releases: []block{{key: 1<<63 | 9, offset: 1 << 40}},
		Payload:  []byte{0xAB, 0xCD},
	}
	// A heartbeat cut behind its fixed header is the pre-digest frame.
	legacyHeartbeat := func(n int) bool { return n == 9 }
	opcode := func(b []byte) (any, error) {
		if len(b) == 0 {
			return nil, errShortMessage
		}
		return b[0], nil
	}
	return []goldenCase{
		{name: "req/put", msg: putMessage(putParts{Owner: 7, Entries: []putEntry{{Key: 42, Class: 4096, Len: 3}}, Payload: []byte("abc")}),
			decode: decPutReq, want: putParts{Owner: 7, Entries: []putEntry{{Key: 42, Class: 4096, Len: 3}}, Payload: []byte("abc")}},
		{name: "req/put-shard-overwrite", msg: putMessage(shardPut), decode: decPutReq, want: shardPut},
		{name: "req/release", msg: encodeReleaseReq([]block{{node: 2, key: 1, offset: 4096}}),
			decode: decReleaseReq, want: []block{{key: 1, offset: 4096}}},
		{name: "req/heartbeat", msg: encodeHeartbeatReq(heartbeatReq{FreeBytes: 12345}),
			decode: decHeartbeatReq, want: heartbeatReq{FreeBytes: 12345, Digests: []metrics.NodeDigest{}},
			okPrefix: legacyHeartbeat},
		{name: "req/heartbeat-digests", msg: encodeHeartbeatReq(heartbeatReq{FreeBytes: -1, Digests: digests}),
			decode: decHeartbeatReq, want: heartbeatReq{FreeBytes: -1, Digests: digests},
			okPrefix: legacyHeartbeat},
		{name: "req/evicted", msg: encEvictedReq(evictedReq{Key: 99}), decode: decEvictedReq, want: evictedReq{Key: 99}},
		{name: "req/stats", msg: []byte{opStats}, decode: opcode, want: byte(opStats)},
		{name: "req/metrics", msg: []byte{opMetrics}, decode: opcode, want: byte(opMetrics)},
		{name: "req/cluster", msg: []byte{opCluster}, decode: opcode, want: byte(opCluster)},
		{name: "req/mapsync", msg: encodeMapSyncReq(cluster.SyncRequest{Origin: 2, Epoch: 6}),
			decode: decMapSyncReq, want: cluster.SyncRequest{Origin: 2, Epoch: 6}},
		{name: "req/locate", msg: encLocateReq(locateReq{Key: 5, Offset: 8192}), decode: decLocateReq, want: locateReq{Key: 5, Offset: 8192}},
		{name: "req/moved", msg: encMovedReq(movedReq{Key: 5, NewNode: 3, NewOffset: 512}), decode: decMovedReq, want: movedReq{Key: 5, NewNode: 3, NewOffset: 512}},
		{name: "req/leave", msg: encLeaveReq(leaveReq{Node: 4}), decode: decLeaveReq, want: leaveReq{Node: 4}},
		{name: "req/decommission", msg: []byte{opDecommission}, decode: opcode, want: byte(opDecommission)},
		{name: "req/harvest", msg: encHarvestReq(harvestReq{WantBytes: 1 << 20}), decode: decHarvestReq, want: harvestReq{WantBytes: 1 << 20}},
		{name: "req/shardstat", msg: encShardStatReq(shardStatReq{Key: 77, Owner: -3}), decode: decShardStatReq, want: shardStatReq{Key: 77, Owner: -3}},

		{name: "resp/ok", msg: okResp(), decode: decStatus},
		{name: "resp/nospace", msg: noSpaceResp(), decode: decStatus, wantErr: ErrRemoteFull},
		{name: "resp/error", msg: errorResp(errors.New("boom")), decode: decStatus, wantErr: errRemote},
		{name: "resp/redirect", msg: encRedirectResp(redirect{Node: 5, Offset: 8192}),
			decode: decLocateResp, want: locateAnswer{Moved: redirect{Node: 5, Offset: 8192}}},
		{name: "resp/put", msg: reply,
			decode: func(b []byte) (any, error) { return decPutResp(b, 2) }, want: []int64{8192, 1 << 40}},
		{name: "resp/stats", msg: encStatsResp(statsResp{FreeBytes: 777}), decode: decStatsResp, want: statsResp{FreeBytes: 777}},
		{name: "resp/metrics", msg: encodeMetricsResp("core\n  remote_puts 3\n"),
			decode:   func(b []byte) (any, error) { return anyOf(decodeMetricsResp(b)) },
			want:     "core\n  remote_puts 3\n",
			okPrefix: func(n int) bool { return n >= 1 }},
		{name: "resp/cluster", msg: encodeClusterResp(digests),
			decode: decClusterResp, want: digests},
		{name: "resp/mapsync-current", msg: encodeMapSyncResp(cluster.SyncResponse{Origin: 2}),
			decode: decMapSyncResp, want: cluster.SyncResponse{Origin: 2}},
		{name: "resp/mapsync-deltas", msg: encodeMapSyncResp(cluster.SyncResponse{Origin: 2, Deltas: []cluster.Delta{delta, {Epoch: 13, Groups: 2}}}),
			decode: decMapSyncResp, want: cluster.SyncResponse{Origin: 2, Deltas: []cluster.Delta{delta, {Epoch: 13, Groups: 2}}}},
		{name: "resp/mapsync-snapshot", msg: encodeMapSyncResp(cluster.SyncResponse{Origin: 3, Snapshot: &snap}),
			decode: decMapSyncResp, want: cluster.SyncResponse{Origin: 3, Snapshot: &snap}},
		{name: "resp/decommission", msg: encDecommissionResp(decommissionResp{Moved: 12}), decode: decDecommissionResp, want: decommissionResp{Moved: 12}},
		{name: "resp/harvest", msg: encHarvestResp(harvestResp{Reclaimed: 1 << 22, Moved: 3}), decode: decHarvestResp, want: harvestResp{Reclaimed: 1 << 22, Moved: 3}},
		{name: "resp/shardstat", msg: encShardStatResp(shardStatResp{Hosted: true, Idx: 5, K: 4, M: 2}), decode: decShardStatResp, want: shardStatResp{Hosted: true, Idx: 5, K: 4, M: 2}},
	}
}

// TestControlGolden pins every control-plane message to the bytes captured
// before the codecs were ported onto internal/wire: the encoders still produce
// them, the decoders still read them back, and no truncation of any of them
// decodes or panics.
func TestControlGolden(t *testing.T) {
	cases := goldenCases()
	if *updateGolden {
		msgs := make([]wiretest.Message, len(cases))
		for i, tc := range cases {
			msgs[i] = wiretest.Message{Name: tc.name, Bytes: tc.msg}
		}
		if err := wiretest.WriteGolden(controlGolden, msgs); err != nil {
			t.Fatal(err)
		}
	}
	golden := wiretest.ReadGolden(t, controlGolden)
	if len(golden) != len(cases) {
		t.Fatalf("%s has %d lines, the table %d cases", controlGolden, len(golden), len(cases))
	}
	for i, tc := range cases {
		line := golden[i]
		if line.Name != tc.name {
			t.Fatalf("line %d is %q, case %d is %q", i, line.Name, i, tc.name)
		}
		t.Run(tc.name, func(t *testing.T) {
			if string(tc.msg) != string(line.Bytes) {
				t.Fatalf("encodes to\n%x, captured\n%x", tc.msg, line.Bytes)
			}
			got, err := tc.decode(line.Bytes)
			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case err != nil:
				t.Fatal(err)
			case !reflect.DeepEqual(got, tc.want):
				t.Fatalf("decodes to\n%+v, want\n%+v", got, tc.want)
			}
			for n := 0; n < len(line.Bytes); n++ {
				if tc.okPrefix != nil && tc.okPrefix(n) {
					continue
				}
				if _, err := tc.decode(line.Bytes[:n:n]); err == nil {
					t.Fatalf("the %d-byte prefix of %d bytes decodes", n, len(line.Bytes))
				}
			}
		})
	}
}

// TestRefusedReplyErrorShape holds every client-side reply decoder to one
// error shape: an stError reply is errRemote carrying the peer's reason, an
// stNoSpace reply is ErrRemoteFull, an empty reply is the short-message error.
func TestRefusedReplyErrorShape(t *testing.T) {
	decoders := map[string]func([]byte) (any, error){
		"stats":        decStatsResp,
		"metrics":      func(b []byte) (any, error) { return anyOf(decodeMetricsResp(b)) },
		"cluster":      decClusterResp,
		"mapSync":      decMapSyncResp,
		"locate":       decLocateResp,
		"decommission": decDecommissionResp,
		"harvest":      decHarvestResp,
		"shardStat":    decShardStatResp,
		"put":          func(b []byte) (any, error) { return decPutResp(b, 1) },
		"release":      decStatus,
	}
	for name, decode := range decoders {
		if _, err := decode(errorResp(errors.New("x"))); !errors.Is(err, errRemote) || !strings.Contains(err.Error(), "x") {
			t.Errorf("%s: error reply err = %v, want errRemote carrying x", name, err)
		}
		if _, err := decode(noSpaceResp()); !errors.Is(err, ErrRemoteFull) {
			t.Errorf("%s: no-space reply err = %v, want ErrRemoteFull", name, err)
		}
		if _, err := decode(nil); !errors.Is(err, errShortMessage) {
			t.Errorf("%s: empty reply err = %v, want errShortMessage", name, err)
		}
	}
}

func anyOf[T any](v T, err error) (any, error) { return v, err }

// putParts is a put request's view copied out of its payload.
type putParts struct {
	Owner    int32
	Shard    replication.Shard
	Entries  []putEntry
	Releases []block
	Payload  []byte
}

// putMessage is the put request as the donor's handler receives it: the
// header the owner encodes with the payload bytes gathered behind it.
func putMessage(p putParts) []byte {
	return append(encodePutReq(p.Owner, p.Shard, p.Entries, p.Releases), p.Payload...)
}

// locateAnswer is decodeLocateResp's two results as one comparable value.
type locateAnswer struct {
	Moved   redirect
	InPlace bool
}

func decPutReq(b []byte) (any, error) {
	req, err := decodePutReq(b)
	if err != nil {
		return nil, err
	}
	parts := putParts{Owner: req.Owner, Shard: req.Shard, Payload: append([]byte(nil), req.payload...)}
	for i := 0; i < req.count(); i++ {
		parts.Entries = append(parts.Entries, req.entry(i))
	}
	for i := 0; i < req.releases.count(); i++ {
		key, off := req.releases.entry(i)
		parts.Releases = append(parts.Releases, block{key: key, offset: off})
	}
	return parts, nil
}

func decReleaseReq(b []byte) (any, error) {
	req, err := decodeReleaseReq(b)
	if err != nil {
		return nil, err
	}
	var blocks []block
	for i := 0; i < req.count(); i++ {
		key, off := req.entry(i)
		blocks = append(blocks, block{key: key, offset: off})
	}
	return blocks, nil
}

func decPutResp(b []byte, count int) (any, error) {
	resp, err := decodePutResp(b, count)
	if err != nil {
		return nil, err
	}
	offsets := make([]int64, count)
	for i := range offsets {
		offsets[i] = resp.offset(i)
	}
	return offsets, nil
}

func decLocateResp(b []byte) (any, error) {
	rd, inPlace, err := decodeLocateResp(b)
	return locateAnswer{rd, inPlace}, err
}

// The adapters below name the codec under test. They are the only part of
// this file that differed when the capture was recorded at the parent commit,
// where each message had its own encodeX/decodeX pair.

// request adapts a request decoder, which handleCall only ever hands a
// payload with an opcode in front, to the empty prefix.
func request[T any](dec func([]byte) (T, error)) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		if len(b) == 0 {
			return nil, errShortMessage
		}
		return anyOf(dec(b))
	}
}

func requestFields[T any](fields func(*T, *wire.Walk)) func([]byte) (any, error) {
	return request(func(b []byte) (T, error) {
		v, _, err := decode(b[1:], fields)
		return v, err
	})
}

func replyFields[T any](fields func(*T, *wire.Walk)) func([]byte) (any, error) {
	return func(b []byte) (any, error) { return anyOf(decodeBody(b, fieldsOf(fields))) }
}

func encEvictedReq(r evictedReq) []byte     { return encode(opEvicted, r, (*evictedReq).fields) }
func encLocateReq(r locateReq) []byte       { return encode(opLocate, r, (*locateReq).fields) }
func encMovedReq(r movedReq) []byte         { return encode(opMoved, r, (*movedReq).fields) }
func encLeaveReq(r leaveReq) []byte         { return encode(opLeave, r, (*leaveReq).fields) }
func encHarvestReq(r harvestReq) []byte     { return encode(opHarvest, r, (*harvestReq).fields) }
func encShardStatReq(r shardStatReq) []byte { return encode(opShardStat, r, (*shardStatReq).fields) }
func encRedirectResp(r redirect) []byte     { return encode(stRedirect, r, (*redirect).fields) }
func encStatsResp(r statsResp) []byte       { return encode(stOK, r, (*statsResp).fields) }
func encDecommissionResp(r decommissionResp) []byte {
	return encode(stOK, r, (*decommissionResp).fields)
}
func encHarvestResp(r harvestResp) []byte     { return encode(stOK, r, (*harvestResp).fields) }
func encShardStatResp(r shardStatResp) []byte { return encode(stOK, r, (*shardStatResp).fields) }

var (
	decHeartbeatReq = request(decodeHeartbeatReq)
	decMapSyncReq   = request(func(b []byte) (cluster.SyncRequest, error) {
		req, _, err := cluster.DecodeSyncRequest(b[1:])
		return req, err
	})
	decEvictedReq   = requestFields((*evictedReq).fields)
	decLocateReq    = requestFields((*locateReq).fields)
	decMovedReq     = requestFields((*movedReq).fields)
	decLeaveReq     = requestFields((*leaveReq).fields)
	decHarvestReq   = requestFields((*harvestReq).fields)
	decShardStatReq = requestFields((*shardStatReq).fields)

	decStatsResp        = replyFields((*statsResp).fields)
	decDecommissionResp = replyFields((*decommissionResp).fields)
	decHarvestResp      = replyFields((*harvestResp).fields)
	decShardStatResp    = replyFields((*shardStatResp).fields)
)

func decStatus(b []byte) (any, error) {
	_, err := checkOKResp(b)
	return nil, err
}

func decMapSyncResp(b []byte) (any, error) {
	return anyOf(decodeBody(b, cluster.DecodeSyncResponse))
}
func decClusterResp(b []byte) (any, error) { return anyOf(decodeBody(b, metrics.DecodeDigestSet)) }
