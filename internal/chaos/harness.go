// Package chaos is the seeded cluster chaos test harness: it wires a full
// disaggregated-memory cluster — per-node directories, heartbeat failure
// detection, triple-replica remote writes — over either fabric (the
// discrete-event simulated RDMA network or real TCP sockets), with every
// endpoint wrapped by one shared faulty.Injector. Scenarios drive workloads
// under a seeded fault schedule and assert the §IV.D invariants with the
// checkers in invariants.go.
//
// Determinism contract: a scenario that issues its fabric operations serially
// from one goroutine while the injector is enabled produces the same
// faulty.Trace and the same outcome sequence on every run with the same seed,
// on both fabrics. The replicator's parallel fan-out is safe under this
// contract: it always attempts every replica, each replica stream issues its
// operations in order, and faulty.Trace is canonically sorted, so the
// per-stream decision counters see the same sequence regardless of how the
// concurrent streams interleave. Setup traffic that is inherently concurrent
// under TCP (heartbeat fan-out) must run with the injector disabled so it
// does not advance the decision counters.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/des"
	"godm/internal/faulty"
	"godm/internal/metrics"
	"godm/internal/simnet"
	"godm/internal/tcpnet"
	"godm/internal/trace"
	"godm/internal/transport"
)

// FabricKind selects the transport under test.
type FabricKind string

// The two interchangeable fabrics.
const (
	FabricSim FabricKind = "sim"
	FabricTCP FabricKind = "tcp"
)

// Config shapes a chaos cluster.
type Config struct {
	// Nodes is the cluster size (IDs 1..Nodes).
	Nodes int
	// GroupSize caps members per directory group; 0 means one flat group of
	// all Nodes. Smaller groups give the heartbeat tree real depth (members →
	// group leader → root).
	GroupSize int
	// ReplicationFactor for remote entries.
	ReplicationFactor int
	// HeartbeatTimeout in failure-detector ticks.
	HeartbeatTimeout int64
	// Durability selects the remote durability policy per node ("rf3",
	// "rs4.2"); empty keeps ReplicationFactor full copies.
	Durability string
}

// DefaultConfig is a six-node cluster with the paper's triple replicas —
// large enough that losing one replica holder leaves a repair candidate.
func DefaultConfig() Config {
	return Config{Nodes: 6, ReplicationFactor: 3, HeartbeatTimeout: 3}
}

// Cluster is a fault-injected test cluster. Every node runs its own
// directory (as real dmnode processes do) fed by control-plane heartbeats,
// so leader views can genuinely diverge and re-converge.
type Cluster struct {
	Kind FabricKind
	Seed int64
	Inj  *faulty.Injector
	// Nodes[i] has fabric ID i+1.
	Nodes []*core.Node
	// Eps[i] is node i+1's fault-injected fabric attachment. Scenarios that
	// drive a core.Client (the batch data plane) ride these, so client
	// traffic passes the same injector and tracer as node traffic.
	Eps []transport.Endpoint
	// Dirs[i] is node i+1's private membership view.
	Dirs []*cluster.Directory
	// Tracer records every node's spans in one ring; under FabricSim it runs
	// on simulated time, so serial scenarios reassemble into byte-identical
	// timelines across runs with the same seed.
	Tracer *trace.Tracer
	// Flight is the always-on flight recorder fed by Tracer. Every invariant
	// violation flags the most recently completed trace in it, so a failed
	// seed's dump carries the offending op's full span timeline.
	Flight *trace.Flight
	// Tree mounts every node's instrumentation plus the invariant counters,
	// for failure dumps.
	Tree *metrics.Tree

	env     *des.Env
	closers []func()
}

// New builds a chaos cluster of the given kind. The injector starts enabled
// with no rules; load a schedule with cl.Inj.AddRules or Load.
func New(t *testing.T, kind FabricKind, seed int64, cfg Config) *Cluster {
	t.Helper()
	if cfg.Nodes < 2 {
		t.Fatalf("chaos: cluster needs at least 2 nodes, got %d", cfg.Nodes)
	}
	cl := &Cluster{Kind: kind, Seed: seed, Inj: faulty.New(seed), Tree: metrics.NewTree()}

	var raw []transport.Endpoint
	switch kind {
	case FabricSim:
		cl.env = des.NewEnv()
		fabric := simnet.New(cl.env, simnet.DefaultParams())
		for i := 1; i <= cfg.Nodes; i++ {
			ep, err := fabric.Attach(transport.NodeID(i))
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, ep)
		}
	case FabricTCP:
		addrs := map[transport.NodeID]string{}
		var eps []*tcpnet.Endpoint
		for i := 1; i <= cfg.Nodes; i++ {
			ep, err := tcpnet.Listen(transport.NodeID(i), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, ep)
			addrs[transport.NodeID(i)] = ep.Addr()
			cl.closers = append(cl.closers, func() { _ = ep.Close() })
		}
		for _, ep := range eps {
			for id, addr := range addrs {
				if id != ep.ID() {
					ep.AddPeer(id, addr)
				}
			}
			raw = append(raw, ep)
		}
	default:
		t.Fatalf("chaos: unknown fabric %q", kind)
	}

	cl.Flight = trace.NewFlight()
	if cl.env != nil {
		cl.Tracer = trace.New(trace.WithClock(cl.env.Now), trace.WithFlight(cl.Flight))
	} else {
		cl.Tracer = trace.New(trace.WithFlight(cl.Flight))
	}
	// Flag the newest trace on every invariant violation: invariants are
	// checked right after the op they verify, so the newest trace is the
	// offending op's timeline. Restored on cleanup — the hook, like the
	// invariant registry, is process-wide.
	prevHook := SetViolationHook(func(invariant string) {
		ids := cl.Tracer.TraceIDs()
		if len(ids) == 0 {
			return
		}
		cl.Flight.Flag(ids[len(ids)-1], "invariant "+invariant)
	})
	t.Cleanup(func() { SetViolationHook(prevHook) })
	cl.Tree.Attach("chaos/invariants", InvariantMetrics())

	groupSize := cfg.GroupSize
	if groupSize == 0 {
		groupSize = cfg.Nodes
	}
	for i := 1; i <= cfg.Nodes; i++ {
		dir, err := cluster.NewDirectory(cluster.Config{
			GroupSize:        groupSize,
			HeartbeatTimeout: cfg.HeartbeatTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Pre-seed the full roster in ID order — self included, so every
		// directory computes identical group assignments (joining self last
		// would skew its own placement). NewNode's self-join below is then a
		// revival no-op that keeps the group. Real free-byte figures arrive
		// with the first heartbeat round.
		for j := 1; j <= cfg.Nodes; j++ {
			dir.Join(cluster.NodeID(j), 0)
		}
		wrapped := transport.Chain(raw[i-1], trace.Middleware(cl.Tracer), cl.Inj.Wrap)
		node, err := core.NewNode(core.Config{
			ID:                transport.NodeID(i),
			SharedPoolBytes:   8192, // two 4 KiB blocks: puts overflow to remote
			SendPoolBytes:     8192,
			RecvPoolBytes:     1 << 20,
			SlabSize:          4096,
			ReplicationFactor: cfg.ReplicationFactor,
			Durability:        cfg.Durability,
		}, wrapped, dir)
		if err != nil {
			t.Fatal(err)
		}
		cl.Eps = append(cl.Eps, wrapped)
		cl.Tree.Attach(fmt.Sprintf("node-%d/core", i), node.Metrics())
		cl.Tree.Attach(fmt.Sprintf("node-%d/replication", i), node.ReplicationMetrics())
		cl.Nodes = append(cl.Nodes, node)
		cl.Dirs = append(cl.Dirs, dir)
	}
	return cl
}

// Close releases listeners (TCP) — a no-op under simulation.
func (cl *Cluster) Close() {
	for _, fn := range cl.closers {
		fn()
	}
}

// Run executes body with a fabric-appropriate context: a simulation process
// under FabricSim (driving the event loop to completion), a plain background
// context under FabricTCP.
func (cl *Cluster) Run(t *testing.T, body func(ctx context.Context)) {
	t.Helper()
	base := trace.WithTracer(context.Background(), cl.Tracer)
	if cl.Kind == FabricSim {
		cl.env.Go("chaos", func(p *des.Proc) {
			body(des.NewContext(base, p))
		})
		if err := cl.env.Run(); err != nil {
			t.Fatal(err)
		}
		return
	}
	body(base)
}

// maxDumpTraces bounds how many timelines a failure dump prints.
const maxDumpTraces = 8

// DumpOnFailure registers a cleanup that, if the test failed, logs the
// cluster's metrics tree (including per-invariant check/violation counters)
// and the most recent trace timelines — the bundle a failed seed leaves
// behind for diagnosis.
func (cl *Cluster) DumpOnFailure(t *testing.T) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		t.Logf("chaos: metrics tree at failure (seed %d, fabric %s):\n%s", cl.Seed, cl.Kind, cl.Tree.String())
		t.Logf("chaos: flight recorder at failure:\n%s", cl.Flight.Dump())
		ids := cl.Tracer.TraceIDs()
		if len(ids) > maxDumpTraces {
			ids = ids[len(ids)-maxDumpTraces:]
		}
		for _, id := range ids {
			t.Logf("chaos: trace %d:\n%s", uint64(id), cl.Tracer.Timeline(id))
		}
	})
}

// HeartbeatRound performs one control-plane interval: every node the injector
// has not crashed runs its core.Node.HeartbeatRound in ID order — heartbeats
// and epoch-tagged map deltas exchanged with its tree targets only, then its
// watch-scoped failure detector — exactly what each dmnode does on its own
// timer. It returns the membership events each node observed (first-hand and
// adopted), indexed like Nodes. Per-node traffic is O(group size), so the
// same round drives 6 nodes and 24.
func (cl *Cluster) HeartbeatRound(ctx context.Context) [][]cluster.Event {
	events := make([][]cluster.Event, len(cl.Nodes))
	for i, n := range cl.Nodes {
		if cl.Inj.Crashed(ctx, n.ID()) {
			continue // a dead process sends nothing and does not tick
		}
		events[i] = n.HeartbeatRound(ctx)
	}
	return events
}

// Payload derives the deterministic test payload for entry i under this
// cluster's seed: size bytes, content a function of (seed, i) only.
func (cl *Cluster) Payload(i, size int) []byte {
	out := make([]byte, size)
	x := uint64(cl.Seed)*0x9E3779B97F4A7C15 + uint64(i)
	for j := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[j] = byte(x)
	}
	return out
}

// Classify maps a put/get error to a stable label for outcome traces: error
// strings can embed run-specific details (addresses, offsets), labels cannot.
func Classify(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrRemoteFull):
		return "aborted"
	case errors.Is(err, core.ErrNoCandidates):
		return "no-candidates"
	case errors.Is(err, faulty.ErrInjected):
		return "injected"
	case errors.Is(err, transport.ErrUnreachable):
		return "unreachable"
	default:
		return fmt.Sprintf("error:%T", err)
	}
}
