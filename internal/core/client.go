package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"godm/internal/bufpool"
	"godm/internal/cluster"
	"godm/internal/compress"
	"godm/internal/metrics"
	"godm/internal/transport"
)

// Client is a lightweight handle for using a disaggregated memory node's
// donated receive pool from outside the node manager — the interface a CLI
// tool or an application-level cache uses to park data entries in a peer's
// idle memory (two-sided puts and releases, one-sided reads).
//
// Beyond per-entry Put/Get/Delete it offers the §IV.H batch data plane:
// PutAll/GetAll/DeleteAll move whole windows of entries with one
// control-plane round trip and span-coalesced one-sided transfers, and
// NewWindow stages entries client-side until the window fills or times out.
// With WithCompression, entries at or above a threshold travel and rest
// compressed, decided per entry and recorded in a flags byte in the handle.
type Client struct {
	ep transport.Verbs

	codec       *compress.Codec
	gran        compress.Granularity
	minCompress int

	// cm is the client's compact snapshot of the cluster memory map,
	// refreshed with epoch-tagged deltas via SyncMap. Reads consult it to
	// decide between an optimistic one-sided read and a locate-first probe.
	cm *cluster.ClientMap
	// redirects counts stRedirect hops followed by reads (observability; the
	// scale suite asserts no single read needs more than maxRedirects).
	redirects atomic.Int64

	mu      sync.Mutex
	handles map[clientKey]clientHandle
}

type clientKey struct {
	node transport.NodeID
	key  uint64
}

// clientHandle is the client half of the memory map for one parked entry:
// where it lives, how many bytes rest there (storedLen, possibly
// compressed), how many bytes it decodes back to (rawLen), and the flags
// byte saying how to decode it.
type clientHandle struct {
	offset    int64
	class     int
	storedLen int
	rawLen    int
	flags     byte
	// home, when non-zero, is where the block actually lives after a
	// decommission redirect was followed; zero means the clientKey's node.
	home transport.NodeID
	// doubted marks a block whose release rode a put that failed in transit:
	// the donor may have run it all the same. The next read settles it.
	doubted bool
}

// minEntryClass is the smallest allocation requested for an entry, matching
// the smallest §IV.H size class.
const minEntryClass = 512

// defaultCompressMin is the compression threshold when WithCompression is
// given a non-positive one: entries below it stay raw (small entries cannot
// drop below the minimum class, so compressing them buys nothing).
const defaultCompressMin = 1024

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithCompression makes the client compress entries of at least minSize bytes
// before parking them (compress.Codec, an LZ block codec), binning compressed
// payloads into the §IV.H 4-granularity size classes (smaller class ⇒ smaller
// slab and fewer bytes on the fabric). Entries that do not shrink below their raw size class are
// stored raw. minSize <= 0 selects a default threshold.
func WithCompression(minSize int) ClientOption {
	return func(c *Client) {
		if minSize <= 0 {
			minSize = defaultCompressMin
		}
		codec, err := compress.NewCodec(compress.Four)
		if err != nil {
			panic(err) // compress.Four is a package constant; cannot fail
		}
		c.codec = codec
		c.gran = compress.Four
		c.minCompress = minSize
	}
}

// NewClient wraps a transport attachment.
func NewClient(ep transport.Verbs, opts ...ClientOption) *Client {
	c := &Client{ep: ep, cm: cluster.NewClientMap(), handles: map[clientKey]clientHandle{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// newStage returns the empty pooled buffer one put call compresses its
// entries into — room for every entry the client would try, so appending
// never moves it — or nil when there is nothing to compress. The caller
// releases it with bufpool.Put once the put has returned: by the transport's
// contract the payload slices are the caller's again by then, cancellation
// included.
func (c *Client) newStage(entries ...Entry) []byte {
	if c.codec == nil {
		return nil
	}
	room := 0
	for _, e := range entries {
		if len(e.Data) >= c.minCompress {
			room += len(e.Data)
		}
	}
	return bufpool.Get(room)[:0]
}

// encodeEntry prepares one entry for the wire: the payload to store, the
// size class to reserve, and the handle flags byte. Compression is applied
// only when it moves the entry into a strictly smaller size class; the
// compressed payload is then a view of *stage, which grows by it.
func (c *Client) encodeEntry(stage *[]byte, data []byte) (payload []byte, class int, flags byte) {
	rawClass := max(len(data), minEntryClass)
	if c.codec == nil || len(data) < c.minCompress {
		return data, rawClass, 0
	}
	out, ok := c.codec.AppendEntry(*stage, data)
	if !ok {
		return data, rawClass, 0
	}
	payload = out[len(*stage):]
	compClass := c.gran.EntryClassFor(len(payload))
	if compClass >= rawClass {
		return data, rawClass, 0
	}
	*stage = out
	return payload, compClass, flagCompressed
}

// decodeEntryInto reverses encodeEntry into dst, which must hold exactly
// h.rawLen bytes; data may be a view into a staging buffer (it is never
// retained).
func decodeEntryInto(dst, data []byte, h clientHandle) error {
	if h.flags&flagCompressed == 0 {
		copy(dst, data)
		return nil
	}
	if err := compress.DecompressEntryInto(dst, data); err != nil {
		return fmt.Errorf("core: entry decompress: %w", err)
	}
	return nil
}

// ask is one control-plane question: msg goes to node and dec reads the body
// of its answer, which is released once decoded (dec keeps no view of it).
// what names the question in a transport failure.
func ask[T any](ctx context.Context, ep transport.Verbs, node transport.NodeID, what string, msg []byte, dec func([]byte) (T, []byte, error)) (T, error) {
	resp, err := ep.Call(ctx, node, msg)
	if err != nil {
		var none T
		return none, fmt.Errorf("core: %s node %d: %w", what, node, err)
	}
	v, err := decodeBody(resp, dec)
	bufpool.Put(resp)
	return v, err
}

// Stats returns the free receive-pool bytes node advertises.
func (c *Client) Stats(ctx context.Context, node transport.NodeID) (int64, error) {
	st, err := ask(ctx, c.ep, node, "stats from", []byte{opStats}, fieldsOf((*statsResp).fields))
	return st.FreeBytes, err
}

// Metrics fetches node's rendered metrics tree over the control plane — the
// transport behind `dmctl stats`.
func (c *Client) Metrics(ctx context.Context, node transport.NodeID) (string, error) {
	resp, err := c.ep.Call(ctx, node, []byte{opMetrics})
	if err != nil {
		return "", fmt.Errorf("core: metrics from node %d: %w", node, err)
	}
	return decodeMetricsResp(resp)
}

// ClusterView fetches node's observability store — every contributor metric
// digest it has heard. Ask the tree root for the whole cluster; this is the
// transport behind `dmctl top` and the digest-filtered `dmctl stats`.
func (c *Client) ClusterView(ctx context.Context, node transport.NodeID) ([]metrics.NodeDigest, error) {
	return ask(ctx, c.ep, node, "cluster view from", []byte{opCluster}, metrics.DecodeDigestSet)
}

// ShardStat asks node which shard (if any) of owner's erasure-coded stripe
// under key it hosts, returning the shard's (index, k, m) coordinates. This
// is the operator-facing passthrough behind `dmctl shard`: it lets repair
// tooling map a stripe's placement donor by donor.
func (c *Client) ShardStat(ctx context.Context, node, owner transport.NodeID, key uint64) (hosted bool, idx, k, m int, err error) {
	msg := encode(opShardStat, shardStatReq{Key: key, Owner: int32(owner)}, (*shardStatReq).fields)
	st, err := ask(ctx, c.ep, node, "shard stat from", msg, fieldsOf((*shardStatResp).fields))
	return st.Hosted, int(st.Idx), int(st.K), int(st.M), err
}

// Put parks data under key in node's receive pool: PutAll of one entry, one
// put call that parks a fresh block and frees the one it displaces. On any
// failure the previous version still reads back.
func (c *Client) Put(ctx context.Context, node transport.NodeID, key uint64, data []byte) error {
	return c.PutAll(ctx, node, []Entry{{Key: key, Data: data}})
}

// Get reads back the entry parked under key on node. The result buffer is
// freshly allocated and owned by the caller; loops that can reuse a buffer
// should prefer GetInto, which is allocation-free for uncompressed entries.
func (c *Client) Get(ctx context.Context, node transport.NodeID, key uint64) ([]byte, error) {
	h, err := c.handle(ctx, clientKey{node: node, key: key})
	if err != nil {
		return nil, err
	}
	out := make([]byte, h.rawLen)
	if _, err := c.readEntry(ctx, clientKey{node: node, key: key}, h, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetInto reads the entry parked under key on node directly into dst and
// returns the entry's decoded length. dst must be at least that long (an
// entry put as n bytes reads back as n bytes). For uncompressed entries the
// payload scatters from the fabric straight into dst — no intermediate
// buffer, no allocation; compressed entries stage the stored payload in a
// pooled buffer and decode into dst, also without allocating. dst is lent to
// the transport for the duration of the call and released by return, per the
// transport.ScatterReader contract.
func (c *Client) GetInto(ctx context.Context, node transport.NodeID, key uint64, dst []byte) (int, error) {
	h, err := c.handle(ctx, clientKey{node: node, key: key})
	if err != nil {
		return 0, err
	}
	if len(dst) < h.rawLen {
		return 0, fmt.Errorf("core: dst holds %d bytes, entry is %d", len(dst), h.rawLen)
	}
	return c.readEntry(ctx, clientKey{node: node, key: key}, h, dst)
}

// getInto scatters the entry behind h into dst (which must hold rawLen
// bytes) and returns the decoded length.
func (c *Client) getInto(ctx context.Context, node transport.NodeID, h clientHandle, dst []byte) (int, error) {
	if h.flags&flagCompressed == 0 {
		if err := transport.ReadRegionInto(ctx, c.ep, node, RecvRegionID, h.offset, dst[:h.storedLen]); err != nil {
			return 0, fmt.Errorf("core: read from node %d: %w", node, err)
		}
		return h.storedLen, nil
	}
	buf := bufpool.Get(h.storedLen)
	if err := transport.ReadRegionInto(ctx, c.ep, node, RecvRegionID, h.offset, buf); err != nil {
		bufpool.Put(buf)
		return 0, fmt.Errorf("core: read from node %d: %w", node, err)
	}
	derr := compress.DecompressEntryInto(dst[:h.rawLen], buf)
	bufpool.Put(buf)
	if derr != nil {
		return 0, fmt.Errorf("core: entry decompress: %w", derr)
	}
	return h.rawLen, nil
}

// Delete releases the entry parked under key on node: DeleteAll for one key.
func (c *Client) Delete(ctx context.Context, node transport.NodeID, key uint64) error {
	return c.DeleteAll(ctx, node, []uint64{key})
}
