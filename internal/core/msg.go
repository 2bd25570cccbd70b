package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"godm/internal/bufpool"
	"godm/internal/cluster"
	"godm/internal/metrics"
	"godm/internal/replication"
	"godm/internal/transport"
	"godm/internal/wire"
)

// Control-plane message opcodes (two-sided send/recv traffic, §IV.G: "RDMA
// send/receive operations for control plane activities").
const (
	opPut       = 1 // park N payloads in the target's receive pool (all or nothing), releasing old blocks
	opFree      = 2 // release N previously parked blocks
	opHeartbeat = 3 // advertise liveness + free receive-pool bytes
	opEvicted   = 4 // notify an owner that its block was evicted
	opStats     = 5 // query free receive-pool bytes
	opMetrics   = 6 // fetch the node's rendered metrics tree
	// 7 and 8 were batch variants of a reserve verb and opFree, 16 a shard
	// reserve; put carries an entry list and the shard tag, so the numbers
	// stay retired.
	// Cluster-scale control plane (§IV.C-D dynamic membership).
	opMapSync      = 9  // epoch-versioned map catch-up: deltas or snapshot
	opLocate       = 10 // confirm a block's location; a moved block redirects
	opMoved        = 11 // tell an owner its block migrated to a new host
	opLeave        = 12 // announce a graceful departure to a peer's directory
	opDecommission = 13 // instruct a node to drain its blocks and leave
	// Cluster-wide observability plane (tree-aggregated metric digests).
	opCluster = 14 // fetch the node's ClusterStore: per-contributor metric digests
	// Balloon harvesting (§IV.F adaptive donation).
	opHarvest = 15 // ask a donor to reclaim part of its donated pool
	// Erasure-coded remote memory (DESIGN.md §16).
	opShardStat = 17 // ask which shard of a stripe this node hosts
)

// Response status codes.
const (
	stOK      = 0
	stNoSpace = 1
	stError   = 2
	// stRedirect answers opLocate for a block that migrated during a
	// decommission drain: the response carries the new host and offset, so a
	// stale-epoch reader pays one cheap extra hop instead of failing.
	stRedirect = 3
)

var errShortMessage = errors.New("core: short control message")

// errRemote marks an in-band stError answer: the peer was reached and refused,
// as opposed to a transport failure.
var errRemote = errors.New("core: remote error")

// errRedirect is checkOKResp's answer for stRedirect; only the locate path
// reads the new home out of the body, every other caller treats it as a
// refusal.
var errRedirect = errors.New("core: block moved")

// Each fixed-layout message below lists its fields once, as an internal/wire
// walk that encode and decode both run. A request's fields sit behind its
// opcode, a reply's behind the status checkOKResp reads.

// encode returns [tag] followed by v's fields.
func encode[T any](tag byte, v T, fields func(*T, *wire.Walk)) []byte {
	b := make([]byte, 1, 32) // every fixed-layout message fits without regrowing
	b[0] = tag
	return wire.Append(b, &v, fields)
}

// decode reads a T's fields from the front of body — a request past its
// opcode, a reply past its status — and returns the bytes behind them.
func decode[T any](body []byte, fields func(*T, *wire.Walk)) (T, []byte, error) {
	r := wire.NewReader(body)
	v := wire.Read(&r, fields)
	return v, r.Rest(), shortErr(&r)
}

// shortErr turns the cursor's latched error into the package's.
func shortErr(r *wire.Reader) error {
	if r.Err() != nil {
		return errShortMessage
	}
	return nil
}

// fieldsOf is decode of a record by its field walk, as a body decoder.
func fieldsOf[T any](fields func(*T, *wire.Walk)) func([]byte) (T, []byte, error) {
	return func(body []byte) (T, []byte, error) { return decode(body, fields) }
}

// decodeBody opens a reply's envelope and hands the body to dec: fieldsOf the
// record the reply carries, or its cluster or metrics decoder.
func decodeBody[T any](b []byte, dec func([]byte) (T, []byte, error)) (T, error) {
	r, err := checkOKResp(b)
	if err != nil {
		var zero T
		return zero, err
	}
	v, _, err := dec(r.Rest())
	return v, err
}

// heartbeatReq advertises the sender's free receive-pool bytes, plus any
// metric digests piggybacking up the observability tree: the sender's own
// digest on every beat and, on a group leader's beat to the root, its
// members' stored digests.
//
//	[opHeartbeat][i64 free] + an optional digest set (metrics.AppendDigestSet)
type heartbeatReq struct {
	FreeBytes int64
	Digests   []metrics.NodeDigest
}

func (r *heartbeatReq) fields(w *wire.Walk) { wire.Field64(w, &r.FreeBytes) }

func encodeHeartbeatReq(r heartbeatReq) []byte {
	// The digest set rides after the fixed header; pre-digest decoders ignore
	// trailing bytes, so mixed-version clusters interoperate.
	return metrics.AppendDigestSet(encode(opHeartbeat, r, (*heartbeatReq).fields), r.Digests)
}

func decodeHeartbeatReq(b []byte) (heartbeatReq, error) {
	r, rest, err := decode(b[1:], (*heartbeatReq).fields)
	if err == nil && len(rest) > 0 {
		r.Digests, _, err = metrics.DecodeDigestSet(rest)
	}
	return r, err
}

// evictedReq tells the owner that its block for Key on the sender is gone.
type evictedReq struct {
	Key uint64
}

func (r *evictedReq) fields(w *wire.Walk) { wire.Field64(w, &r.Key) }

// statsResp reports free receive-pool bytes.
type statsResp struct {
	FreeBytes int64
}

func (r *statsResp) fields(w *wire.Walk) { wire.Field64(w, &r.FreeBytes) }

// Entry-handle flag bits recorded in client handles. The hosting node treats
// payloads as opaque; the flags tell the *owner's* read path how to decode
// what it parked, so they never travel.
const (
	// flagCompressed marks a payload stored as a compress.Codec block (§IV.H);
	// Get decodes it back to the entry's raw length.
	flagCompressed = 1 << 0
)

// The two data-path control verbs. A put is reserve + payload + release-old in
// one two-sided exchange: the donor allocates a block per entry, copies the
// entry's payload bytes in, frees the named old blocks and answers with the
// offsets, so an overwrite costs one round trip. A release frees blocks.
//
//	put      [opPut][i32 owner][u8 idx][u8 k][u8 m][u32 N][u32 R]
//	         + N x [u64 key][u32 class][u32 len]
//	         + R x [u64 key][u64 old offset]
//	         + the N payloads, back to back (len bytes each)
//	         reply [stOK] + N x [u64 offset] | [stNoSpace] | [stError]...
//	release  [opFree] + N x [u64 key][u64 offset]
//	         reply [stOK] | [stError]...
//
// The simulated fabric charges len(payload)/bandwidth per Call, so the figure
// goldens move if a one-block message grows (see TestReservationSizesPinned).
const (
	putHeaderBytes    = 1 + 4 + 3 + 4 + 4
	putEntryBytes     = 8 + 4 + 4
	releaseEntryBytes = 8 + 8
	offsetBytes       = 8
)

// maxBatchEntries bounds one put or release request (a 64 Ki-entry batch of
// minimum 512 B classes already exceeds any receive pool this repo
// configures).
const maxBatchEntries = 1 << 16

// putEntry is one slot of a put request: the entry key, the size class to
// reserve for it and how many payload bytes follow for it.
type putEntry struct {
	Key   uint64
	Class int32
	Len   int32
}

// putReq is a decoded put request. Entries, releases and payload stay in the
// request buffer and are read in place, so the donor's handler allocates
// nothing but its pooled reply; the buffer is the transport's and dies with
// the handler.
//
// Owner names the blocks' true owner when the requester puts on its behalf —
// drain and harvest migration is issued by the departing host — and zero
// means the caller. A tagged Shard marks each block as shard idx of the
// owner's RS(k, m) stripe under its key; the donor records the coordinates
// for opShardStat and the invariant checkers. On-behalf and shard puts are
// refused for a key the donor hosts beyond the blocks the request releases:
// two replicas would collapse onto one slot of the owner's replica map, two
// shards of a stripe on one donor would halve its erasure tolerance.
type putReq struct {
	Owner    int32
	Shard    replication.Shard
	entries  []byte
	releases releaseReq
	payload  []byte
}

func (r putReq) count() int { return len(r.entries) / putEntryBytes }

func (r putReq) entry(i int) putEntry {
	b := r.entries[i*putEntryBytes:]
	return putEntry{
		Key:   binary.BigEndian.Uint64(b[0:8]),
		Class: int32(binary.BigEndian.Uint32(b[8:12])),
		Len:   int32(binary.BigEndian.Uint32(b[12:16])),
	}
}

// encodePutReq encodes everything but the payload bytes, which ride behind it
// as further slices of a gather call. The buffer comes from the frame pool;
// the caller releases it once the call has returned.
func encodePutReq(owner int32, shard replication.Shard, entries []putEntry, old []block) []byte {
	buf := bufpool.Get(putHeaderBytes + putEntryBytes*len(entries) + releaseEntryBytes*len(old))[:putHeaderBytes]
	buf[0] = opPut
	binary.BigEndian.PutUint32(buf[1:5], uint32(owner))
	buf[5], buf[6], buf[7] = shard.Idx, shard.K, shard.M
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(entries)))
	binary.BigEndian.PutUint32(buf[12:16], uint32(len(old)))
	for _, e := range entries {
		buf = binary.BigEndian.AppendUint64(buf, e.Key)
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.Class))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.Len))
	}
	return appendBlocks(buf, old)
}

// decodePutReq validates the whole frame before the handler allocates
// anything: at least one entry, both lists inside the frame, every payload no
// longer than its class, and the payload bytes exactly the sum of the lengths.
func decodePutReq(b []byte) (putReq, error) {
	if len(b) < putHeaderBytes {
		return putReq{}, errShortMessage
	}
	n, rel := int(binary.BigEndian.Uint32(b[8:12])), int(binary.BigEndian.Uint32(b[12:16]))
	if n == 0 || n > maxBatchEntries || rel > maxBatchEntries {
		return putReq{}, fmt.Errorf("core: put of %d entries releasing %d is outside [1, %d]", n, rel, maxBatchEntries)
	}
	body := b[putHeaderBytes:]
	if len(body) < n*putEntryBytes+rel*releaseEntryBytes {
		return putReq{}, errShortMessage
	}
	r := putReq{
		Owner:    int32(binary.BigEndian.Uint32(b[1:5])),
		Shard:    replication.Shard{Idx: b[5], K: b[6], M: b[7]},
		entries:  body[:n*putEntryBytes],
		releases: releaseReq(body[n*putEntryBytes:][:rel*releaseEntryBytes]),
		payload:  body[n*putEntryBytes+rel*releaseEntryBytes:],
	}
	var total int64
	for i := 0; i < n; i++ {
		e := r.entry(i)
		if e.Len < 0 || e.Len > e.Class {
			return putReq{}, fmt.Errorf("core: put entry %d: payload %d exceeds class %d", i, e.Len, e.Class)
		}
		total += int64(e.Len)
	}
	if total != int64(len(r.payload)) {
		return putReq{}, fmt.Errorf("core: put carries %d payload bytes, entries claim %d", len(r.payload), total)
	}
	return r, nil
}

// putResp is a validated stOK put reply: one global offset per entry, in
// request order, read in place.
type putResp []byte

func (r putResp) offset(i int) int64 {
	return int64(binary.BigEndian.Uint64(r[1+offsetBytes*i:]))
}

// newPutResp returns an stOK reply with room for count offsets, which the
// donor's handler fills in as it allocates. It comes from the frame pool and
// goes to the transport with the handler's return: tcpnet releases it once
// written, simnet hands it to the caller, which releases it after decoding.
func newPutResp(count int) putResp {
	r := putResp(bufpool.Get(1 + offsetBytes*count))
	r[0] = stOK
	return r
}

func (r putResp) setOffset(i int, off int64) {
	binary.BigEndian.PutUint64(r[1+offsetBytes*i:], uint64(off))
}

func decodePutResp(b []byte, count int) (putResp, error) {
	if _, err := checkOKResp(b); err != nil {
		return nil, err
	}
	if len(b) < 1+offsetBytes*count {
		return nil, errShortMessage
	}
	return putResp(b), nil
}

// block names one parked block from the owner's side: the node hosting it,
// the entry key, and the block's global offset in that node's receive region.
type block struct {
	node   transport.NodeID
	key    uint64
	offset int64
}

// releaseReq is a validated release list — a release request's, or the one
// riding a put; like putReq's, entries are read in place.
type releaseReq []byte

func (r releaseReq) count() int { return len(r) / releaseEntryBytes }

func (r releaseReq) entry(i int) (key uint64, offset int64) {
	b := r[i*releaseEntryBytes:]
	return binary.BigEndian.Uint64(b[0:8]), int64(binary.BigEndian.Uint64(b[8:16]))
}

// encodeReleaseReq encodes the key and offset of every block; the caller has
// already grouped blocks by hosting node. Like encodePutReq's, the buffer
// comes from the frame pool and is the caller's to release.
func encodeReleaseReq(blocks []block) []byte {
	buf := bufpool.Get(1 + releaseEntryBytes*len(blocks))[:1]
	buf[0] = opFree
	return appendBlocks(buf, blocks)
}

// appendBlocks appends a release list: [u64 key][u64 offset] per block.
func appendBlocks(buf []byte, blocks []block) []byte {
	for _, b := range blocks {
		buf = binary.BigEndian.AppendUint64(buf, b.key)
		buf = binary.BigEndian.AppendUint64(buf, uint64(b.offset))
	}
	return buf
}

// decodeReleaseReq accepts whole entries only: at least one, at most
// maxBatchEntries.
func decodeReleaseReq(b []byte) (releaseReq, error) {
	if len(b) <= 1 || (len(b)-1)%releaseEntryBytes != 0 {
		return nil, errShortMessage
	}
	if n := (len(b) - 1) / releaseEntryBytes; n > maxBatchEntries {
		return nil, fmt.Errorf("core: %d entries in one request exceeds %d", n, maxBatchEntries)
	}
	return releaseReq(b[1:]), nil
}

// encodeClusterResp ships the responding node's ClusterStore contents —
// every contributor digest it has heard — for dmctl top / stats filtering.
func encodeClusterResp(set []metrics.NodeDigest) []byte {
	return metrics.AppendDigestSet([]byte{stOK}, set)
}

func encodeMetricsResp(text string) []byte {
	return append([]byte{stOK}, text...)
}

func decodeMetricsResp(b []byte) (string, error) {
	r, err := checkOKResp(b)
	return string(r.Rest()), err
}

// okReply is the one stOK answer, shared read-only: nothing writes into an
// answer, and bufpool.Put drops it when a transport or caller releases it.
var okReply = []byte{stOK}

func okResp() []byte { return okReply }

func noSpaceResp() []byte { return []byte{stNoSpace} }

func errorResp(err error) []byte {
	return append([]byte{stError}, err.Error()...)
}

// checkOKResp is the one reply envelope: every reply is [status][body], and
// this is the only place a status byte is interpreted. stOK yields a cursor
// over the body and allocates nothing; stNoSpace is ErrRemoteFull; stRedirect
// is errRedirect with the cursor over the new home; anything else is the
// peer's refusal, errRemote wrapping its text.
func checkOKResp(b []byte) (wire.Reader, error) {
	r := wire.NewReader(b)
	switch st := r.U8(); {
	case r.Err() != nil:
		return r, shortErr(&r)
	case st == stOK:
		return r, nil
	case st == stNoSpace:
		return r, ErrRemoteFull
	case st == stRedirect:
		return r, errRedirect
	default:
		return r, fmt.Errorf("%w: %s", errRemote, r.Rest())
	}
}

// mapSyncReq wraps a cluster sync request: the requester names the origin
// directory its cached map came from and the epoch it holds.
func encodeMapSyncReq(req cluster.SyncRequest) []byte {
	return cluster.AppendSyncRequest([]byte{opMapSync}, req)
}

func encodeMapSyncResp(resp cluster.SyncResponse) []byte {
	return cluster.AppendSyncResponse([]byte{stOK}, resp)
}

// locateReq asks whether the block parked under key is still at offset on
// the receiving node. stOK confirms it; a drained block answers stRedirect
// with its new home.
type locateReq struct {
	Key    uint64
	Offset int64
}

func (r *locateReq) fields(w *wire.Walk) {
	wire.Field64(w, &r.Key)
	wire.Field64(w, &r.Offset)
}

// redirect is the payload of an stRedirect response: the block's new home.
type redirect struct {
	Node   transport.NodeID
	Offset int64
}

func (r *redirect) fields(w *wire.Walk) {
	wire.Field64(w, &r.Node)
	wire.Field64(w, &r.Offset)
}

// decodeLocateResp returns (redirect, false, nil) when the block moved,
// (zero, true, nil) when it is confirmed in place, and an error otherwise.
func decodeLocateResp(b []byte) (redirect, bool, error) {
	r, err := checkOKResp(b)
	if err == errRedirect {
		rd, _, err := decode(r.Rest(), (*redirect).fields)
		return rd, false, err
	}
	return redirect{}, err == nil, err
}

// movedReq tells a block's owner that the block for Key now lives on NewNode
// at NewOffset (sent by a decommissioning host as it drains).
type movedReq struct {
	Key       uint64
	NewNode   transport.NodeID
	NewOffset int64
}

func (r *movedReq) fields(w *wire.Walk) {
	wire.Field64(w, &r.Key)
	wire.Field64(w, &r.NewNode)
	wire.Field64(w, &r.NewOffset)
}

// leaveReq announces Node's graceful departure; the receiver records it as a
// Left map delta instead of waiting out the failure detector.
type leaveReq struct {
	Node transport.NodeID
}

func (r *leaveReq) fields(w *wire.Walk) { wire.Field64(w, &r.Node) }

// decommissionResp reports how many hosted blocks the drain migrated.
type decommissionResp struct {
	Moved int32
}

func (r *decommissionResp) fields(w *wire.Walk) { wire.Field32(w, &r.Moved) }

// harvestReq asks a donor node to reclaim wantBytes from its receive pool.
type harvestReq struct {
	WantBytes int64
}

func (r *harvestReq) fields(w *wire.Walk) { wire.Field64(w, &r.WantBytes) }

// harvestResp reports how much budget came back and how many hosted blocks
// had to migrate to get it.
type harvestResp struct {
	Reclaimed int64
	Moved     int32
}

func (r *harvestResp) fields(w *wire.Walk) {
	wire.Field64(w, &r.Reclaimed)
	wire.Field32(w, &r.Moved)
}

// shardStatReq asks which shard of owner's stripe under Key the target hosts.
type shardStatReq struct {
	Key   uint64
	Owner int32
}

func (r *shardStatReq) fields(w *wire.Walk) {
	wire.Field64(w, &r.Key)
	wire.Field32(w, &r.Owner)
}

// shardStatResp carries the hosted shard's coordinates; Hosted false means
// the target holds no shard of that stripe.
type shardStatResp struct {
	Hosted bool
	Idx    uint8
	K      uint8
	M      uint8
}

func (r *shardStatResp) fields(w *wire.Walk) {
	w.Bool(&r.Hosted)
	wire.Field8(w, &r.Idx)
	wire.Field8(w, &r.K)
	wire.Field8(w, &r.M)
}
