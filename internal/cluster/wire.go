// Wire codec for the epoch-versioned map sync protocol. Fixed-width
// big-endian fields, in the style of internal/core's message codec, so the
// same bytes decode identically on every node and fabric. Each record lists
// its fields once, in wire order, as an internal/wire walk that both appends
// and reads them. The codec is exported because both the core node ops
// (opMapSync) and the transport conformance suite need to round-trip these
// payloads.
package cluster

import (
	"errors"

	"godm/internal/wire"
)

// ErrBadSync is returned when a sync payload does not decode.
var ErrBadSync = errors.New("cluster: malformed sync payload")

// maxWireEntries caps decoded element counts; wire.List further holds every
// count to what the remaining input can carry.
const maxWireEntries = 1 << 20

const (
	syncKindCurrent  = 0 // requester already current: no payload
	syncKindDeltas   = 1
	syncKindSnapshot = 2
)

// decode reads one T from the front of b and returns the remaining bytes.
func decode[T any](b []byte, fields func(*T, *wire.Walk)) (T, []byte, error) {
	r := wire.NewReader(b)
	v := wire.Read(&r, fields)
	if r.Err() != nil {
		var zero T
		return zero, nil, ErrBadSync
	}
	return v, r.Rest(), nil
}

func (req *SyncRequest) fields(w *wire.Walk) {
	wire.Field64(w, &req.Origin)
	wire.Field64(w, &req.Epoch)
}

func (s *NodeState) fields(w *wire.Walk) {
	wire.Field64(w, &s.ID)
	wire.Field64(w, &s.FreeBytes)
	w.Bool(&s.Alive)
	wire.Field32(w, &s.Group)
	wire.Field64(w, &s.Gver)
}

func (ch *Change) fields(w *wire.Walk) {
	ch.State.fields(w)
	w.Bool(&ch.Left)
}

func (gl *GroupLeader) fields(w *wire.Walk) {
	wire.Field32(w, &gl.Group)
	wire.Field64(w, &gl.Leader)
}

// [u64 epoch][i32 groups][i64 root][u8 flags: 1 rootOK, 2 leadersChanged]
// [u32 n] + n x [change], then the leader list when leadersChanged.
func (d *Delta) fields(w *wire.Walk) {
	wire.Field64(w, &d.Epoch)
	wire.Field32(w, &d.Groups)
	wire.Field64(w, &d.Root)
	var flags byte
	if d.RootOK {
		flags |= 1
	}
	if d.LeadersChanged {
		flags |= 2
	}
	wire.Field8(w, &flags)
	if w.Reading() {
		d.RootOK, d.LeadersChanged = flags&1 != 0, flags&2 != 0
	}
	wire.List(w, &d.Changes, maxWireEntries, (*Change).fields)
	if d.LeadersChanged {
		wire.List(w, &d.Leaders, maxWireEntries, (*GroupLeader).fields)
	}
}

// [u64 epoch][i32 groups][i64 root][u8 rootOK][u32 n] + n x [node state],
// then the leader list.
func (s *MapSnapshot) fields(w *wire.Walk) {
	wire.Field64(w, &s.Epoch)
	wire.Field32(w, &s.Groups)
	wire.Field64(w, &s.Root)
	w.Bool(&s.RootOK)
	wire.List(w, &s.Nodes, maxWireEntries, (*NodeState).fields)
	wire.List(w, &s.Leaders, maxWireEntries, (*GroupLeader).fields)
}

// [i64 origin][u8 kind], then nothing (current), [u32 n] + n x [delta], or a
// snapshot.
func (resp *SyncResponse) fields(w *wire.Walk) {
	wire.Field64(w, &resp.Origin)
	kind := byte(syncKindCurrent)
	switch {
	case resp.Snapshot != nil:
		kind = syncKindSnapshot
	case len(resp.Deltas) > 0:
		kind = syncKindDeltas
	}
	wire.Field8(w, &kind)
	switch kind {
	case syncKindCurrent:
	case syncKindDeltas:
		wire.List(w, &resp.Deltas, maxWireEntries, (*Delta).fields)
	case syncKindSnapshot:
		if w.Reading() {
			resp.Snapshot = new(MapSnapshot)
		}
		resp.Snapshot.fields(w)
	default:
		w.Fail()
	}
}

// AppendSyncRequest appends the wire form of req to b.
func AppendSyncRequest(b []byte, req SyncRequest) []byte {
	return wire.Append(b, &req, (*SyncRequest).fields)
}

// DecodeSyncRequest decodes a request and returns the remaining bytes.
func DecodeSyncRequest(b []byte) (SyncRequest, []byte, error) {
	return decode(b, (*SyncRequest).fields)
}

// AppendDelta appends the wire form of one delta to b.
func AppendDelta(b []byte, d Delta) []byte { return wire.Append(b, &d, (*Delta).fields) }

// DecodeDelta decodes one delta and returns the remaining bytes.
func DecodeDelta(b []byte) (Delta, []byte, error) { return decode(b, (*Delta).fields) }

// AppendSnapshot appends the wire form of a full map snapshot to b.
func AppendSnapshot(b []byte, s MapSnapshot) []byte {
	return wire.Append(b, &s, (*MapSnapshot).fields)
}

// DecodeSnapshot decodes a snapshot and returns the remaining bytes.
func DecodeSnapshot(b []byte) (MapSnapshot, []byte, error) {
	return decode(b, (*MapSnapshot).fields)
}

// AppendSyncResponse appends the wire form of resp to b.
func AppendSyncResponse(b []byte, resp SyncResponse) []byte {
	return wire.Append(b, &resp, (*SyncResponse).fields)
}

// DecodeSyncResponse decodes a response and returns the remaining bytes.
func DecodeSyncResponse(b []byte) (SyncResponse, []byte, error) {
	return decode(b, (*SyncResponse).fields)
}
