package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"godm/internal/des"
	"godm/internal/pagetable"
	"godm/internal/replication"
	"godm/internal/slab"
	"godm/internal/trace"
	"godm/internal/transport"
)

// keyEntryMask keeps the low 48 bits of an entry ID; the top 16 bits carry
// the virtual-server index, making wire keys unique per node.
const keyEntryMask = (uint64(1) << 48) - 1

// VirtualServer is one VM, container, or JVM executor registered with the
// node manager. Its methods are the LDMC interface: transparent puts and
// gets against disaggregated memory, with the memory map recording where
// each entry lives (§IV.B).
type VirtualServer struct {
	name     string
	index    uint16
	node     *Node
	donation int64
	table    *pagetable.Table

	// putCount counts disaggregated-memory puts, the signal §IV.F's
	// ballooning policy watches.
	putCount atomic.Int64

	onBalloon func(bytes int64)
}

// Name returns the virtual server's name.
func (vs *VirtualServer) Name() string { return vs.name }

// Donation returns the bytes this server donated to the shared pool.
func (vs *VirtualServer) Donation() int64 { return vs.donation }

// Table exposes the server's disaggregated memory map (read-mostly use:
// experiments inspect tier distributions).
func (vs *VirtualServer) Table() *pagetable.Table { return vs.table }

// SetBalloonCallback installs the function invoked when the node manager
// balloons memory back to this server.
func (vs *VirtualServer) SetBalloonCallback(fn func(bytes int64)) {
	vs.node.vsMu.Lock()
	vs.onBalloon = fn
	vs.node.vsMu.Unlock()
}

func (vs *VirtualServer) key(id pagetable.EntryID) uint64 {
	return uint64(vs.index)<<48 | (uint64(id) & keyEntryMask)
}

// WireKey returns the cluster-wide key id travels under — the key remote
// hosts record against this owner. Invariant checkers use it to ask donor
// nodes whether they still hold copies of a rolled-back entry.
func (vs *VirtualServer) WireKey(id pagetable.EntryID) uint64 { return vs.key(id) }

// PutShared parks an entry in the node-coordinated shared memory pool.
// data is the (possibly compressed) payload, class its size class, and
// rawSize the uncompressed size. It returns ErrNoSpace when the pool is
// full, in which case the caller should try PutRemote.
func (vs *VirtualServer) PutShared(id pagetable.EntryID, data []byte, class, rawSize int) error {
	if len(data) > class {
		return fmt.Errorf("core: payload %d exceeds class %d", len(data), class)
	}
	h, err := vs.node.shared.Alloc(class)
	if err != nil {
		if errors.Is(err, slab.ErrNoSpace) {
			return fmt.Errorf("%w: entry %d", ErrNoSpace, id)
		}
		return err
	}
	if err := vs.node.shared.Write(h, data); err != nil {
		_ = vs.node.shared.Free(h)
		return err
	}
	if old, ok := vs.table.Lookup(id); ok {
		_ = vs.releaseLocation(context.Background(), id, old)
	}
	vs.table.Put(id, pagetable.Location{
		Tier:       pagetable.TierSharedMemory,
		Primary:    pagetable.NodeID(vs.node.cfg.ID),
		Ref:        pagetable.SlabRef{SlabID: h.SlabID, Offset: h.Offset},
		StoredSize: class,
		RawSize:    rawSize,
	})
	vs.node.counters.sharedPuts.Add(1)
	vs.node.met.sharedPuts.Inc()
	vs.putCount.Add(1)
	return nil
}

// PutRemote replicates an entry into the receive pools of remote group
// members (the RDMC path). It returns ErrRemoteFull or ErrNoCandidates when
// cluster memory cannot hold the entry, in which case the caller should fall
// through to disk.
//
// Overwriting an entry that already lives in remote memory is still one round
// trip: on a donor that stays in the set the old block's release rides the
// put that replaces it (remoteStore.Put), and donors that drop out of the set
// are released while the policy's write fans out. The entry is absent from the
// map for the duration, and a failed overwrite leaves it absent with nothing
// of either generation behind — the policy rolls back the copies that
// landed, and every old donor is released (the caller still holds the
// payload).
func (vs *VirtualServer) PutRemote(ctx context.Context, id pagetable.EntryID, data []byte, class, rawSize int) error {
	if len(data) > class {
		return fmt.Errorf("core: payload %d exceeds class %d", len(data), class)
	}
	ctx, sp := trace.Start(ctx, "core.put_remote")
	sp.AnnotateInt("entry", int(id))
	sp.AnnotateInt("class", class)
	defer sp.End()
	start := trace.Now(ctx)
	// A reader must never assemble an entry from two generations: the old
	// location leaves the map before the first put lands.
	old, mapped := vs.table.Lookup(id)
	overwrite := mapped && old.Tier == pagetable.TierRemote
	if overwrite {
		vs.table.Delete(id)
	}
	fail := func(err error) error {
		if overwrite {
			// Donors the new generation never reached still host the old one;
			// detached, because the failure may be the caller's context dying.
			rbCtx, cancel := replication.Detached(ctx)
			_ = vs.releaseLocation(rbCtx, id, old)
			cancel()
		}
		sp.Annotate("err", err)
		return err
	}
	_, pick := trace.Start(ctx, "placement.pick")
	nodes, err := vs.node.pickRemotes(vs.node.policy.Width(), nil)
	pick.EndErr(err)
	if err != nil {
		return fail(err)
	}
	key := replication.EntryID(vs.key(id))
	var stale []replication.NodeID // old donors outside the new set
	if overwrite {
		for _, o := range old.Holders() {
			if !slices.Contains(nodes, o) {
				stale = append(stale, o)
			}
		}
	}
	err = vs.write(ctx, nodes, stale, key, class, data)
	if err != nil {
		if errors.Is(err, replication.ErrAborted) {
			err = fmt.Errorf("%w: %v", ErrRemoteFull, err)
		}
		return fail(err)
	}
	if mapped && !overwrite {
		// A predecessor in the shared pool goes only once the remote copies
		// have landed.
		_ = vs.releaseLocation(ctx, id, old)
	}
	vs.table.Put(id, pagetable.Location{Tier: pagetable.TierRemote, StoredSize: class, RawSize: rawSize}.WithHolders(nodes))
	vs.node.counters.remotePuts.Add(1)
	vs.node.met.remotePuts.Inc()
	elapsed := trace.Now(ctx) - start
	vs.node.met.remotePutLatency.Observe(elapsed)
	if vs.node.slos.Observe("put", elapsed) {
		// The slow-op watchdog: the annotation flags this span's trace into
		// the flight recorder's flagged ring.
		sp.Annotate("slow", "put")
	}
	vs.putCount.Add(1)
	return nil
}

// write is the policy's write of a new generation (each donor reserves the
// policy's ShardClass of class) with the release of the old one's stale donors
// — through the store, not the policy, whose Delete would forget the stripe
// being written — beside it over a real fabric, after it in order under DES.
func (vs *VirtualServer) write(ctx context.Context, nodes, stale []replication.NodeID, key replication.EntryID, class int, data []byte) error {
	if len(stale) == 0 {
		return vs.node.policy.Write(ctx, nodes, key, class, data)
	}
	return des.Each(ctx, 1+len(stale), func(i int) error {
		if i == 0 {
			return vs.node.policy.Write(ctx, nodes, key, class, data)
		}
		return vs.node.remote.Delete(ctx, stale[i-1], key) // best-effort: eviction is the backstop
	})[0]
}

// Put stores an entry in the fastest tier with room: shared memory first,
// then remote memory. This is the transparent LDMS path of Figure 1.
func (vs *VirtualServer) Put(ctx context.Context, id pagetable.EntryID, data []byte, class, rawSize int) (pagetable.Tier, error) {
	err := vs.PutShared(id, data, class, rawSize)
	if err == nil {
		return pagetable.TierSharedMemory, nil
	}
	if !errors.Is(err, ErrNoSpace) {
		return 0, err
	}
	if err := vs.PutRemote(ctx, id, data, class, rawSize); err != nil {
		return 0, err
	}
	return pagetable.TierRemote, nil
}

// Get fetches an entry from wherever it lives, returning the stored payload
// and its location: GetInto a fresh buffer of the entry's stored size, which
// the caller owns outright. Callers that read and discard, or can reuse a
// buffer, should call GetInto.
func (vs *VirtualServer) Get(ctx context.Context, id pagetable.EntryID) ([]byte, pagetable.Location, error) {
	loc, err := vs.table.Get(id)
	if err != nil {
		return nil, loc, err
	}
	data := make([]byte, loc.StoredSize)
	n, err := vs.read(ctx, id, loc, 0, data, true)
	if err != nil {
		return nil, loc, err
	}
	return data[:n], loc, nil
}

// GetInto fetches an entry into the front of dst and returns the stored
// payload's length and the entry's location. dst must hold loc.StoredSize
// bytes — a shorter one is refused before anything is read — and is lent for
// the call only: nothing writes it once GetInto has returned, cancelled or
// not. Remote reads go one-sided to the primary and fail over through the
// replicas (or reconstruct from parity under a coding policy), landing in dst
// with no allocation and no copy in between.
func (vs *VirtualServer) GetInto(ctx context.Context, id pagetable.EntryID, dst []byte) (int, pagetable.Location, error) {
	loc, err := vs.table.Get(id)
	if err != nil {
		return 0, loc, err
	}
	if len(dst) < loc.StoredSize {
		return 0, loc, fmt.Errorf("core: dst holds %d bytes, entry %d stores %d", len(dst), id, loc.StoredSize)
	}
	n, err := vs.read(ctx, id, loc, 0, dst, true)
	return n, loc, err
}

// GetAtInto fills dst with the len(dst) bytes starting at off within a stored
// entry, without moving the rest — the window-based batch layout relies on
// this to bring the slots a fault asked for out of a parked batch as one span
// (one message, no padding). Remote reads go one-sided at the recorded region
// offset plus off. dst is lent for the call only, as in GetInto.
func (vs *VirtualServer) GetAtInto(ctx context.Context, id pagetable.EntryID, off int, dst []byte) error {
	loc, err := vs.table.Get(id)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > loc.StoredSize {
		return fmt.Errorf("core: range [%d,%d) exceeds stored size %d", off, off+len(dst), loc.StoredSize)
	}
	_, err = vs.read(ctx, id, loc, off, dst, false)
	return err
}

// read is the one read, whole or ranged, under the same span, counters,
// latency histogram and objective: with whole set the entry's payload lands in
// the front of dst (which holds loc.StoredSize bytes) and its length is
// returned, otherwise dst is filled from off. It allocates nothing.
func (vs *VirtualServer) read(ctx context.Context, id pagetable.EntryID, loc pagetable.Location, off int, dst []byte, whole bool) (n int, err error) {
	ctx, sp := trace.Start(ctx, "core.get")
	sp.AnnotateInt("entry", int(id))
	sp.Annotate("tier", loc.Tier)
	defer func() { sp.EndErr(err) }()
	switch loc.Tier {
	case pagetable.TierSharedMemory:
		if whole {
			dst = dst[:loc.StoredSize]
		}
		h := slab.Handle{SlabID: loc.Ref.SlabID, Offset: loc.Ref.Offset, Class: loc.StoredSize}
		if err := vs.node.shared.ReadAtInto(h, off, dst); err != nil {
			return 0, err
		}
		vs.node.counters.sharedGets.Add(1)
		vs.node.met.sharedGets.Inc()
		return len(dst), nil
	case pagetable.TierRemote:
		start := trace.Now(ctx)
		key := replication.EntryID(vs.key(id))
		n = len(dst)
		if whole {
			n, _, err = vs.node.policy.Read(ctx, loc.Holders(), key, dst)
		} else {
			err = vs.node.policy.ReadAt(ctx, loc.Holders(), key, off, dst)
		}
		if err != nil {
			return 0, err
		}
		vs.node.counters.remoteGets.Add(1)
		vs.node.met.remoteGets.Inc()
		elapsed := trace.Now(ctx) - start
		vs.node.met.remoteGetLatency.Observe(elapsed)
		if vs.node.slos.Observe("get", elapsed) {
			sp.Annotate("slow", "get")
		}
		return n, nil
	default:
		return 0, fmt.Errorf("core: entry %d is on tier %v, not managed here", id, loc.Tier)
	}
}

// Delete removes an entry from disaggregated memory. Deleting an absent
// entry is not an error (idempotent, matching swap-slot semantics).
func (vs *VirtualServer) Delete(ctx context.Context, id pagetable.EntryID) error {
	loc, err := vs.table.Get(id)
	if err != nil {
		if errors.Is(err, pagetable.ErrNotFound) {
			return nil
		}
		return err
	}
	vs.table.Delete(id)
	return vs.releaseLocation(ctx, id, loc)
}

func (vs *VirtualServer) releaseLocation(ctx context.Context, id pagetable.EntryID, loc pagetable.Location) error {
	switch loc.Tier {
	case pagetable.TierSharedMemory:
		h := slab.Handle{SlabID: loc.Ref.SlabID, Offset: loc.Ref.Offset, Class: loc.StoredSize}
		return vs.node.shared.Free(h)
	case pagetable.TierRemote:
		return vs.node.policy.Delete(ctx, loc.Holders(), replication.EntryID(vs.key(id)))
	default:
		return nil
	}
}

// Location reports where an entry currently lives.
func (vs *VirtualServer) Location(id pagetable.EntryID) (pagetable.Location, error) {
	return vs.table.Get(id)
}

// ReadFrom fetches a remote entry's payload directly from one specific member
// of its replica set, bypassing the usual primary-then-replicas failover. The
// chaos invariant checkers use it to verify replicated-write atomicity: after
// a committed write, every holder must serve the same bytes.
func (vs *VirtualServer) ReadFrom(ctx context.Context, id pagetable.EntryID, node transport.NodeID) ([]byte, error) {
	loc, err := vs.table.Get(id)
	if err != nil {
		return nil, err
	}
	if loc.Tier != pagetable.TierRemote {
		return nil, fmt.Errorf("core: entry %d is on tier %v, not remote", id, loc.Tier)
	}
	if !slices.Contains(loc.Holders(), replication.NodeID(node)) {
		return nil, fmt.Errorf("core: node %d is not in the replica set of entry %d", node, id)
	}
	key := replication.EntryID(vs.key(id))
	n, err := vs.node.remote.Len(replication.NodeID(node), key)
	if err != nil {
		return nil, err
	}
	data := make([]byte, n)
	if err := vs.node.remote.ReadAt(ctx, replication.NodeID(node), key, 0, data); err != nil {
		return nil, err
	}
	return data, nil
}
