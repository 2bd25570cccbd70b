// Package replication implements the fault-tolerance protocol of §IV.D: each
// remote write is replicated to a primary plus two replica nodes (the paper
// adopts HDFS-style triple-replica modularity), every remote operation is
// atomic ("all or nothing"), and reads fail over from the primary through the
// replicas. When a replica is lost — connection failure, node crash, or
// preemptive slab eviction — Repair re-establishes the replication factor on
// a replacement node.
//
// Over a real fabric, Write and Delete fan their per-replica operations out
// concurrently (every replica is always attempted; an aborted write rolls
// back on a context detached from the caller's); under the discrete-event
// simulation, or with WithSerialFanout, they stay serial.
//
// The package is transport-agnostic: it drives any Store implementation,
// which in this repository is backed by the simulated RDMA fabric, the TCP
// fabric, or an in-memory fake in tests.
package replication

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"godm/internal/des"
	"godm/internal/metrics"
	"godm/internal/trace"
)

// NodeID names a remote node.
type NodeID int

// EntryID names a replicated data entry.
type EntryID uint64

// Sentinel errors.
var (
	// ErrNoReplica is returned when every node in the replica set failed.
	ErrNoReplica = errors.New("replication: no reachable replica")
	// ErrAborted is returned when an atomic write rolled back.
	ErrAborted = errors.New("replication: write aborted")
)

// Store is the per-node storage the replicator drives. Implementations must
// be safe for concurrent use.
type Store interface {
	// Put writes data for id on node.
	Put(ctx context.Context, node NodeID, id EntryID, data []byte) error
	// Get reads data for id from node.
	Get(ctx context.Context, node NodeID, id EntryID) ([]byte, error)
	// Delete removes id from node. Deleting an absent entry is not an error.
	Delete(ctx context.Context, node NodeID, id EntryID) error
}

// DefaultFactor is the paper's replication factor (primary + 2 replicas).
const DefaultFactor = 3

// Replicator coordinates replicated, atomic remote writes.
type Replicator struct {
	store  Store
	factor int
	serial bool
	met    replMetrics
}

// rollbackTimeout bounds the detached rollback of an aborted write. It is a
// wall-clock deadline: the simulated fabric never consults deadlines, so
// under DES the timer is inert and rollback completes in simulated time.
const rollbackTimeout = 2 * time.Second

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

// WithSerialFanout forces Write and Delete to contact replicas one node at a
// time, the pre-fan-out behavior. It exists as the baseline for the
// data-plane benchmarks and as an escape hatch for transports that cannot
// take concurrent operations.
func WithSerialFanout() Option {
	return func(r *Replicator) { r.serial = true }
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

// Factor returns the configured replication factor.
func (r *Replicator) Factor() int { return r.factor }

// fanout runs op against every node and returns one error slot per node.
// Over a real fabric the operations run concurrently — the multiplexed
// transport pipelines them over pooled connections, so a replicated write
// costs one round trip instead of factor round trips. Under the
// discrete-event simulation (or WithSerialFanout) the loop stays serial: a
// simulated process is cooperative and must issue its fabric operations from
// its own goroutine.
//
// Every node is always attempted — there is no short-circuit on first
// failure. Besides gathering the full success set for rollback, this keeps
// the per-stream operation sequence seen by the fault injector independent
// of which replica happens to fail first, which the seeded chaos replay
// tests depend on.
func (r *Replicator) fanout(ctx context.Context, nodes []NodeID, op func(context.Context, NodeID) error) []error {
	errs := make([]error, len(nodes))
	_, simulated := des.FromContext(ctx)
	if r.serial || simulated || len(nodes) == 1 {
		for i, n := range nodes {
			errs[i] = op(ctx, n)
		}
		return errs
	}
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n NodeID) {
			defer wg.Done()
			errs[i] = op(ctx, n)
		}(i, n)
	}
	wg.Wait()
	return errs
}

// Write stores data for id on the given nodes (nodes[0] is the primary) as an
// atomic transaction: if any node fails, the copies already written are
// rolled back and ErrAborted is returned. len(nodes) must equal the factor.
// The per-replica puts fan out concurrently over a real fabric (see fanout).
func (r *Replicator) Write(ctx context.Context, nodes []NodeID, id EntryID, data []byte) error {
	if len(nodes) != r.factor {
		return fmt.Errorf("replication: got %d nodes, factor is %d", len(nodes), r.factor)
	}
	ctx, sp := trace.Start(ctx, "repl.write")
	sp.Annotate("entry", uint64(id))
	sp.Annotate("nodes", len(nodes))
	r.met.writes.Inc()
	start := trace.Now(ctx)
	errs := r.fanout(ctx, nodes, func(ctx context.Context, n NodeID) error {
		return r.store.Put(ctx, n, id, data)
	})
	failed := -1
	for i, err := range errs {
		if err != nil {
			failed = i
			break
		}
	}
	if failed < 0 {
		r.met.writeLatency.Observe(trace.Now(ctx) - start)
		sp.End()
		return nil
	}
	// Best-effort rollback of every copy that did land. It must not ride the
	// caller's context: an abort is often *caused* by that context expiring,
	// and rolling back on a dead context would strand the copies it should be
	// erasing. Detach from cancellation (keeping values — the DES process and
	// trace ride along) and bound the cleanup with a fresh deadline. A node
	// that still fails rollback is cleaned up by eviction/repair.
	rbCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rollbackTimeout)
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
	err := fmt.Errorf("%w: put on node %d: %v", ErrAborted, nodes[failed], errs[failed])
	sp.EndErr(err)
	return err
}

// Read implements Policy: id's payload lands in the front of dst from the
// primary, failing over to the replicas in order. It returns the payload's
// length together with the node that served it.
func (r *Replicator) Read(ctx context.Context, nodes []NodeID, id EntryID, dst []byte) (int, NodeID, error) {
	var n int
	served, err := r.readFrom(ctx, nodes, id, func(ctx context.Context, node NodeID) (err error) {
		n, err = r.getInto(ctx, node, id, dst)
		return err
	})
	return n, served, err
}

// readFrom is the replicated read: fetch runs against the primary first and
// then each replica in order until one serves, and the node that did is
// returned. Read fetches into the caller's buffer, Repair into a fresh one.
func (r *Replicator) readFrom(ctx context.Context, nodes []NodeID, id EntryID, fetch func(context.Context, NodeID) error) (NodeID, error) {
	ctx, sp := trace.Start(ctx, "repl.read")
	sp.Annotate("entry", uint64(id))
	r.met.reads.Inc()
	start := trace.Now(ctx)
	var lastErr error
	for i, n := range nodes {
		err := fetch(ctx, n)
		if err == nil {
			if i > 0 {
				r.met.readFailover.Inc()
				sp.Annotate("failovers", i)
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
// lowest-indexed node that failed after attempting all. Like Write, the
// per-node frees fan out concurrently over a real fabric.
func (r *Replicator) Delete(ctx context.Context, nodes []NodeID, id EntryID) error {
	r.met.deletes.Inc()
	errs := r.fanout(ctx, nodes, func(ctx context.Context, n NodeID) error {
		return r.store.Delete(ctx, n, id)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("replication: delete on node %d: %w", nodes[i], err)
		}
	}
	return nil
}

// Repair restores the replication factor after node lost is no longer usable
// for entry id: it reads a surviving copy from the remaining nodes and writes
// it to replacement. It returns the updated replica set.
func (r *Replicator) Repair(ctx context.Context, nodes []NodeID, id EntryID, lost, replacement NodeID) ([]NodeID, error) {
	ctx, sp := trace.Start(ctx, "repl.repair")
	sp.Annotate("entry", uint64(id))
	sp.Annotate("lost", int(lost))
	defer sp.End()
	r.met.repairs.Inc()
	survivors := make([]NodeID, 0, len(nodes))
	for _, n := range nodes {
		if n != lost {
			survivors = append(survivors, n)
		}
	}
	if len(survivors) == len(nodes) {
		return nodes, fmt.Errorf("replication: node %d not in replica set %v", lost, nodes)
	}
	for _, n := range survivors {
		if n == replacement {
			return nodes, fmt.Errorf("replication: replacement %d already holds entry %d", replacement, id)
		}
	}
	var data []byte
	_, err := r.readFrom(ctx, survivors, id, func(ctx context.Context, node NodeID) (err error) {
		data, err = r.store.Get(ctx, node, id)
		return err
	})
	if err != nil {
		return nodes, fmt.Errorf("replication: repair of entry %d: %w", id, err)
	}
	if err := r.store.Put(ctx, replacement, id, data); err != nil {
		return nodes, fmt.Errorf("replication: repair put on node %d: %w", replacement, err)
	}
	return append(survivors, replacement), nil
}
