package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"godm/internal/des"
	"godm/internal/metrics"
	"godm/internal/wire/wiretest"
)

// TestHeartbeatCountPrefixCannotDriveAllocation: the smallest hostile
// heartbeat — the fixed header and two bytes claiming 4096 contributor
// digests — is refused in-band, with the digest codec's reason, before the
// handler sizes anything from the claim.
func TestHeartbeatCountPrefixCannotDriveAllocation(t *testing.T) {
	tc := newTestCluster(t, 1, smallConfig)
	hostile := append(encode(opHeartbeat, heartbeatReq{FreeBytes: 1}, (*heartbeatReq).fields), 0x10, 0x00)
	if len(hostile) != 11 {
		t.Fatalf("hostile heartbeat is %d bytes, want 11", len(hostile))
	}
	var (
		resp []byte
		err  error
	)
	got := wiretest.AllocBytes(func() { resp, err = tc.nodes[0].handleCall(context.Background(), 2, hostile) })
	if got >= 1<<10 {
		t.Errorf("an 11-byte heartbeat allocated %d bytes", got)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkOKResp(resp); !errors.Is(err, errRemote) || !strings.Contains(err.Error(), metrics.ErrBadDigest.Error()) {
		t.Errorf("reply err = %v, want errRemote carrying %q", err, metrics.ErrBadDigest)
	}
}

// codec pairs a wire-facing decoder with the encoder of what it returns.
type codec struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}

func encoderOf[T any](enc func(T) []byte) func(any) []byte {
	return func(v any) []byte { return enc(v.(T)) }
}

// controlCodecs lists every decoder a control-plane payload can reach apart
// from the reserve/release views, which FuzzReservationCodec covers.
var controlCodecs = []codec{
	{"req/heartbeat", func(b []byte) (any, error) {
		v, err := decHeartbeatReq(b)
		if r, ok := v.(heartbeatReq); ok && len(r.Digests) == 0 {
			r.Digests = nil // a pre-digest frame and an empty set are one message
			v = r
		}
		return v, err
	}, encoderOf(encodeHeartbeatReq)},
	{"req/evicted", decEvictedReq, encoderOf(encEvictedReq)},
	{"req/mapsync", decMapSyncReq, encoderOf(encodeMapSyncReq)},
	{"req/locate", decLocateReq, encoderOf(encLocateReq)},
	{"req/moved", decMovedReq, encoderOf(encMovedReq)},
	{"req/leave", decLeaveReq, encoderOf(encLeaveReq)},
	{"req/harvest", decHarvestReq, encoderOf(encHarvestReq)},
	{"req/shardstat", decShardStatReq, encoderOf(encShardStatReq)},
	{"resp/stats", decStatsResp, encoderOf(encStatsResp)},
	{"resp/metrics", func(b []byte) (any, error) { return anyOf(decodeMetricsResp(b)) }, encoderOf(encodeMetricsResp)},
	{"resp/cluster", decClusterResp, encoderOf(encodeClusterResp)},
	{"resp/mapsync", decMapSyncResp, encoderOf(encodeMapSyncResp)},
	{"resp/locate", decLocateResp, encoderOf(func(a locateAnswer) []byte {
		if a.InPlace {
			return okResp()
		}
		return encRedirectResp(a.Moved)
	})},
	{"resp/decommission", decDecommissionResp, encoderOf(encDecommissionResp)},
	{"resp/harvest", decHarvestResp, encoderOf(encHarvestResp)},
	{"resp/shardstat", decShardStatResp, encoderOf(encShardStatResp)},
}

// FuzzControlCodec feeds arbitrary bytes to the control plane from both ends:
// as a request to the dispatcher, which must answer in-band and never panic,
// and as a message to every decoder, each of which must allocate in
// proportion to its input and return only what survives an encode/decode
// round trip unchanged.
func FuzzControlCodec(f *testing.F) {
	for _, m := range wiretest.ReadGolden(f, controlGolden) {
		f.Add(m.Bytes)
	}
	f.Add(append(encode(opHeartbeat, heartbeatReq{}, (*heartbeatReq).fields), 0x10, 0x00))
	f.Fuzz(func(t *testing.T, in []byte) {
		// A fresh node per input: a payload that drains or harvests it must
		// not change what the next one sees.
		tc := newTestCluster(t, 1, smallConfig)
		tc.run(t, func(ctx context.Context, p *des.Proc) {
			resp, err := tc.nodes[0].handleCall(ctx, 2, in)
			if err != nil {
				t.Errorf("handleCall failed out of band: %v", err)
			} else if _, err := checkOKResp(resp); errors.Is(err, errShortMessage) {
				t.Error("handleCall returned an empty reply")
			}
		})
		for _, c := range controlCodecs {
			var (
				got any
				err error
			)
			wiretest.CheckAllocBound(t, len(in), func() { got, err = c.decode(in) })
			if err != nil {
				continue
			}
			again, err := c.decode(c.encode(got))
			if err != nil {
				t.Fatalf("%s: re-encoded %+v fails to decode: %v", c.name, got, err)
			}
			if !reflect.DeepEqual(again, got) {
				t.Fatalf("%s: round trip changed the message:\n%+v\n%+v", c.name, got, again)
			}
		}
	})
}
