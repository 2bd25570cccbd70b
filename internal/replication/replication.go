// Package replication implements the fault-tolerance protocol of §IV.D: each
// remote write is replicated to a primary plus two replica nodes (the paper
// adopts HDFS-style triple-replica modularity), every remote operation is
// atomic ("all or nothing"), and reads fail over from the primary through the
// replicas. When a replica is lost — connection failure, node crash, or
// preemptive slab eviction — Restore re-creates it on a replacement node.
//
// Write and Delete fan their per-replica operations out through des.Each —
// concurrently over a real fabric, serially under the discrete-event
// simulation, every replica always attempted — and an aborted write rolls
// back on a context detached from the caller's.
//
// The package is transport-agnostic: it drives any Store implementation,
// which in this repository is backed by the simulated RDMA fabric, the TCP
// fabric, or an in-memory fake in tests.
package replication

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"godm/internal/bufpool"
	"godm/internal/des"
	"godm/internal/metrics"
	"godm/internal/pagetable"
	"godm/internal/trace"
)

// NodeID names a remote node. It is the memory map's node type, so the holder
// list a pagetable.Location records is a policy's node list as it stands.
type NodeID = pagetable.NodeID

// EntryID names a replicated data entry.
type EntryID uint64

// Sentinel errors.
var (
	// ErrNoReplica is returned when every node in the replica set failed.
	ErrNoReplica = errors.New("replication: no reachable replica")
	// ErrAborted is returned when an atomic write rolled back.
	ErrAborted = errors.New("replication: write aborted")
)

// Shard tags a put as shard Idx of an RS(K, M) stripe, so the hosting donor
// can record the coordinates and refuse a second shard of the same stripe —
// the distinct-donor placement rule enforced host-side. Every real stripe has
// K >= 1, so the zero value means "not a shard".
type Shard struct {
	Idx, K, M uint8
}

// Tagged reports whether s names a stripe position.
func (s Shard) Tagged() bool { return s.K != 0 }

// Store is the per-node storage both durability policies drive: one fixed
// contract, with nothing optional to negotiate. Implementations must be safe
// for concurrent use.
type Store interface {
	// Put parks data for id on node in a block of size class, tagged with its
	// stripe position when shard is non-zero. A put over an entry already
	// there replaces it.
	Put(ctx context.Context, node NodeID, id EntryID, class int, shard Shard, data []byte) error
	// Len reports the length of the payload stored for id on node, from the
	// owner's own records: it never touches the fabric, so a caller can refuse
	// a buffer that is too short before any donor is read.
	Len(node NodeID, id EntryID) (int, error)
	// ReadAt fills dst with the len(dst) bytes at off within the payload
	// stored for id on node; a range outside the payload is refused before
	// anything is read. dst is lent for the call only.
	ReadAt(ctx context.Context, node NodeID, id EntryID, off int, dst []byte) error
	// Delete removes id from node. Deleting an absent entry is not an error.
	Delete(ctx context.Context, node NodeID, id EntryID) error
}

// DefaultFactor is the paper's replication factor (primary + 2 replicas).
const DefaultFactor = 3

// Replicator coordinates replicated, atomic remote writes.
type Replicator struct {
	store  Store
	factor int
	met    replMetrics
}

// cleanupTimeout bounds a Detached cleanup. It is a wall-clock deadline: the
// simulated fabric never consults deadlines, so under DES the timer is inert
// and the cleanup completes in simulated time.
const cleanupTimeout = 2 * time.Second

// Detached returns the context best-effort cleanup runs on — the rollback of
// an aborted write, the release of blocks a failed batch parked. It must not
// ride the caller's context: the failure is often *caused* by that context
// expiring, and cleaning up on a dead context would strand what it should be
// erasing. Cancellation is dropped, values stay (the DES process and the
// trace ride along), and a fresh deadline bounds the work; what still fails
// is left to eviction and repair.
func Detached(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.WithoutCancel(ctx), cleanupTimeout)
}

// replMetrics is the protocol's instrumentation. Latency observations use
// trace.Now, so simulated runs stay deterministic.
type replMetrics struct {
	writes        *metrics.Counter
	writeAborts   *metrics.Counter
	rollbacks     *metrics.Counter
	rollbackFails *metrics.Counter
	reads         *metrics.Counter
	readFailover  *metrics.Counter
	deletes       *metrics.Counter
	repairs       *metrics.Counter
	writeLatency  *metrics.Histogram
	readLatency   *metrics.Histogram
}

func newReplMetrics(reg *metrics.Registry) replMetrics {
	return replMetrics{
		writes:        reg.Counter("writes"),
		writeAborts:   reg.Counter("write_aborts"),
		rollbacks:     reg.Counter("rollbacks"),
		rollbackFails: reg.Counter("rollback_fails"),
		reads:         reg.Counter("reads"),
		readFailover:  reg.Counter("read_failovers"),
		deletes:       reg.Counter("deletes"),
		repairs:       reg.Counter("repairs"),
		writeLatency:  reg.Histogram("write_latency"),
		readLatency:   reg.Histogram("read_latency"),
	}
}

// Option configures a Replicator.
type Option func(*Replicator)

// WithFactor overrides the replication factor (>= 1).
func WithFactor(n int) Option {
	return func(r *Replicator) { r.factor = n }
}

// WithMetrics mounts the replicator's instrumentation on reg (by default it
// lives in a private registry nothing exports).
func WithMetrics(reg *metrics.Registry) Option {
	return func(r *Replicator) {
		if reg != nil {
			r.met = newReplMetrics(reg)
		}
	}
}

// New returns a replicator over store.
func New(store Store, opts ...Option) (*Replicator, error) {
	r := &Replicator{store: store, factor: DefaultFactor}
	r.met = newReplMetrics(metrics.NewRegistry("replication"))
	for _, o := range opts {
		o(r)
	}
	if r.factor < 1 {
		return nil, fmt.Errorf("replication: factor %d < 1", r.factor)
	}
	if store == nil {
		return nil, errors.New("replication: nil store")
	}
	return r, nil
}

// Write implements Policy: data lands on every node (nodes[0] is the primary),
// each copy in a class-sized block, as an atomic transaction — if any node
// fails, the copies already written are rolled back and ErrAborted is
// returned. len(nodes) must equal the factor.
func (r *Replicator) Write(ctx context.Context, nodes []NodeID, id EntryID, class int, data []byte) error {
	if len(nodes) != r.factor {
		return fmt.Errorf("replication: got %d nodes, factor is %d", len(nodes), r.factor)
	}
	ctx, sp := trace.Start(ctx, "repl.write")
	sp.AnnotateInt("entry", int(id))
	sp.AnnotateInt("nodes", len(nodes))
	r.met.writes.Inc()
	start := trace.Now(ctx)
	errs := des.Each(ctx, len(nodes), func(i int) error {
		return r.store.Put(ctx, nodes[i], id, class, Shard{}, data)
	})
	bad := FirstError(errs)
	if bad < 0 {
		r.met.writeLatency.Observe(trace.Now(ctx) - start)
		sp.End()
		return nil
	}
	// Best-effort rollback of every copy that did land; a node that still
	// fails it is cleaned up by eviction/repair.
	rbCtx, cancel := Detached(ctx)
	defer cancel()
	for i, err := range errs {
		if err == nil {
			r.met.rollbacks.Inc()
			if derr := r.store.Delete(rbCtx, nodes[i], id); derr != nil {
				r.met.rollbackFails.Inc()
			}
		}
	}
	r.met.writeAborts.Inc()
	err := fmt.Errorf("%w: put on node %d: %v", ErrAborted, nodes[bad], errs[bad])
	sp.EndErr(err)
	return err
}

// FirstError returns the lowest position of a fan-out that failed, or -1.
func FirstError(errs []error) int {
	return slices.IndexFunc(errs, func(err error) bool { return err != nil })
}

// Read implements Policy: id's payload lands in the front of dst from the
// primary, failing over to the replicas in order. It returns the payload's
// length together with the node that served it.
func (r *Replicator) Read(ctx context.Context, nodes []NodeID, id EntryID, dst []byte) (int, NodeID, error) {
	var n int
	served, err := r.readFrom(ctx, nodes, id, func(ctx context.Context, node NodeID) (err error) {
		if n, err = r.store.Len(node, id); err != nil {
			return err
		}
		if len(dst) < n {
			return fmt.Errorf("replication: dst holds %d bytes, entry %d stores %d", len(dst), id, n)
		}
		return r.store.ReadAt(ctx, node, id, 0, dst[:n])
	})
	return n, served, err
}

// readFrom is the replicated read: fetch runs against the primary first and
// then each replica in order until one serves, and the node that did is
// returned. Read and ReadAt fetch into the caller's buffer, repair into a
// pooled one.
func (r *Replicator) readFrom(ctx context.Context, nodes []NodeID, id EntryID, fetch func(context.Context, NodeID) error) (NodeID, error) {
	ctx, sp := trace.Start(ctx, "repl.read")
	sp.AnnotateInt("entry", int(id))
	r.met.reads.Inc()
	start := trace.Now(ctx)
	var lastErr error
	for i, n := range nodes {
		err := fetch(ctx, n)
		if err == nil {
			if i > 0 {
				r.met.readFailover.Inc()
				sp.AnnotateInt("failovers", i)
			}
			r.met.readLatency.Observe(trace.Now(ctx) - start)
			sp.End()
			return n, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("empty replica set")
	}
	// Dual %w: callers branch both on "every replica failed" and on the
	// underlying cause (the daemon retries ErrUnreachable ticks, for one).
	err := fmt.Errorf("%w: entry %d: %w", ErrNoReplica, id, lastErr)
	sp.EndErr(err)
	return 0, err
}

// Delete removes id from every node, returning the error of the
// lowest-indexed node that failed after attempting all.
func (r *Replicator) Delete(ctx context.Context, nodes []NodeID, id EntryID) error {
	r.met.deletes.Inc()
	errs := des.Each(ctx, len(nodes), func(i int) error {
		return r.store.Delete(ctx, nodes[i], id)
	})
	if i := FirstError(errs); i >= 0 {
		return fmt.Errorf("replication: delete on node %d: %w", nodes[i], errs[i])
	}
	return nil
}

// repair is one step of Restore: member lost of nodes is no longer usable
// for entry id, so a surviving copy is read from the remaining nodes into a
// pooled buffer and written, in a class-sized block, to a replacement drawn
// from pick. It returns the updated replica set.
func (r *Replicator) repair(ctx context.Context, nodes []NodeID, id EntryID, class int, lost NodeID, pick PickFunc) ([]NodeID, error) {
	replacement, err := pick(1, nodes)
	if err != nil {
		return nil, err
	}
	ctx, sp := trace.Start(ctx, "repl.repair")
	sp.AnnotateInt("entry", int(id))
	sp.AnnotateInt("lost", int(lost))
	defer sp.End()
	r.met.repairs.Inc()
	survivors := slices.DeleteFunc(slices.Clone(nodes), func(n NodeID) bool { return n == lost })
	var data []byte
	defer func() { bufpool.Put(data) }()
	_, err = r.readFrom(ctx, survivors, id, func(ctx context.Context, node NodeID) error {
		n, err := r.store.Len(node, id)
		if err != nil {
			return err
		}
		bufpool.Put(data) // a survivor that failed mid-read
		data = bufpool.Get(n)
		return r.store.ReadAt(ctx, node, id, 0, data)
	})
	if err != nil {
		return nil, fmt.Errorf("replication: repair of entry %d: %w", id, err)
	}
	if err := r.store.Put(ctx, replacement[0], id, class, Shard{}, data); err != nil {
		return nil, fmt.Errorf("replication: repair put on node %d: %w", replacement[0], err)
	}
	return append(survivors, replacement[0]), nil
}
