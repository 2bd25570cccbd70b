// Command dmnode runs one disaggregated memory node as a real process: it
// listens for verbs traffic over TCP, donates a receive pool to the cluster,
// serves control-plane allocations, and periodically exchanges heartbeats
// with its group leader (or, as a leader, with its members and the root) and
// re-replicates what crashed peers held.
//
// A three-node cluster on one machine:
//
//	dmnode -id 1 -listen :7401 -peers 2=localhost:7402,3=localhost:7403
//	dmnode -id 2 -listen :7402 -peers 1=localhost:7401,3=localhost:7403
//	dmnode -id 3 -listen :7403 -peers 1=localhost:7401,2=localhost:7402
//
// Then park data in a node's pool with dmctl.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/metrics"
	"godm/internal/obs"
	"godm/internal/placement"
	"godm/internal/swap"
	"godm/internal/tcpnet"
	"godm/internal/trace"
	"godm/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dmnode", flag.ContinueOnError)
	var (
		id        = fs.Int("id", 1, "node id (unique per cluster)")
		listen    = fs.String("listen", ":7401", "listen address")
		peersFlag = fs.String("peers", "", "comma-separated id=host:port peer list")
		recvMiB   = fs.Int64("recv-mib", 256, "receive pool donated to the cluster (MiB)")
		sharedMiB = fs.Int64("shared-mib", 256, "node-coordinated shared pool (MiB)")
		replicas  = fs.Int("replicas", 3, "replication factor for remote entries")
		durable   = fs.String("durability", "", "remote durability policy: rf<N> full copies or rs<K>.<M> erasure coding (empty = -replicas full copies)")
		tick      = fs.Duration("tick", 2*time.Second, "heartbeat/maintenance interval")
		httpAddr  = fs.String("http", "", "serve /metrics, /stats, /trace, and /debug/pprof on this address (empty = disabled)")
		groupSize = fs.Int("group-size", 0, "nodes per sharing group: members beat their group leader, leaders beat the root (0 = one flat group, every node beats its leader)")
		drain     = fs.Bool("drain", false, "on shutdown, decommission first: migrate hosted blocks to peers and announce departure")
		balancer  = fs.String("balancer", "power-of-two", "remote-placement policy: power-of-two, load-aware, weighted-rr, round-robin, or random")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}

	ep, err := tcpnet.Listen(transport.NodeID(*id), *listen)
	if err != nil {
		return err
	}
	defer ep.Close()
	for peerID, addr := range peers {
		ep.AddPeer(peerID, addr)
	}

	gs := *groupSize
	if gs <= 0 {
		gs = len(peers) + 1
	}
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: gs, HeartbeatTimeout: 3})
	if err != nil {
		return err
	}
	// Seed the full roster — self included — in ID order, so every daemon
	// computes identical group assignments for the heartbeat tree. (Map
	// iteration order or joining self last would skew placement per node.)
	roster := make([]int, 0, len(peers)+1)
	roster = append(roster, *id)
	for peerID := range peers {
		roster = append(roster, int(peerID))
	}
	sort.Ints(roster)
	for _, member := range roster {
		dir.Join(cluster.NodeID(member), 0)
	}

	factor := *replicas
	if len(peers) < factor {
		factor = len(peers)
	}
	if factor < 1 {
		factor = 1
	}
	// An explicit durability policy is refused up front if the roster cannot
	// host it: unlike -replicas (clamped above), an RS stripe needs all k+m
	// shards on distinct donors or every put would fail.
	if *durable != "" {
		width, err := core.DurabilityWidth(*durable, factor)
		if err != nil {
			return err
		}
		if width > len(peers) {
			return fmt.Errorf("-durability %s needs %d peers for its shards, have %d", *durable, width, len(peers))
		}
	}
	// One tracer, one flight recorder, and one metrics tree per process. The
	// node's fabric traffic runs through the trace middleware so a remote
	// op's spans reassemble under its caller's trace; the raw endpoint keeps
	// serving Addr/AddPeer/transport metrics. The flight recorder is always
	// on: it retains recent completed timelines and every slow-op, dumpable
	// via /debug/flight or SIGQUIT without restarting the daemon.
	flight := trace.NewFlight()
	tracer := trace.New(trace.WithFlight(flight))
	tree := metrics.NewTree()
	tree.Attach("node/transport", ep.Metrics())
	// Pre-declare the swap families: dmnode hosts no swap engine itself, but
	// scrapers want the full schema (zero-valued) from every node.
	swap.NewMetrics(tree.Registry("node/swap"))

	bal, err := buildBalancer(*balancer, int64(*id)+1)
	if err != nil {
		return err
	}
	node, err := core.NewNode(core.Config{
		ID:                transport.NodeID(*id),
		SharedPoolBytes:   *sharedMiB << 20,
		SendPoolBytes:     64 << 20,
		RecvPoolBytes:     *recvMiB << 20,
		SlabSize:          1 << 20,
		ReplicationFactor: factor,
		Durability:        *durable,
		Balancer:          bal,
	}, transport.Chain(ep, trace.Middleware(tracer)), dir)
	if err != nil {
		return err
	}
	tree.Attach("node/core", node.Metrics())
	tree.Attach("node/replication", node.ReplicationMetrics())
	node.SetMetricsTree(tree)

	if *httpAddr != "" {
		srv, bound, err := obs.Serve(*httpAddr, obs.Options{
			Tree:    tree,
			Tracer:  tracer,
			Flight:  flight,
			Cluster: node.ClusterStore(),
			Health: func() obs.Health {
				return obs.Health{Node: int64(*id), Epoch: uint64(dir.Epoch()), Draining: node.Draining()}
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("observability on http://%s (/metrics /stats /cluster /trace /debug/flight /healthz /debug/pprof)", bound)
	}
	policy := fmt.Sprintf("replication %d", factor)
	if *durable != "" {
		policy = "durability " + *durable
	}
	log.Printf("dmnode %d listening on %s, donating %d MiB, %d peers, %s",
		*id, ep.Addr(), *recvMiB, len(peers), policy)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	// SIGQUIT dumps the flight recorder to the log and keeps serving — the
	// operator's "what just happened" lever on a live daemon.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	ticker := time.NewTicker(*tick)
	defer ticker.Stop()
	rpcRTT := ep.Metrics().Histogram("rpc_rtt")
	bytesTx := ep.Metrics().Counter("bytes_tx")
	bytesRx := ep.Metrics().Counter("bytes_rx")
	reconnects := ep.Metrics().Counter("reconnect_attempts")
	for {
		select {
		case <-ticker.C:
			// Bound each maintenance round by the tick so a wedged peer can
			// never stall the loop past one interval: the transport honors
			// cancellation mid-RPC.
			ctx, cancel := context.WithTimeout(context.Background(), *tick)
			ctx = trace.WithTracer(ctx, tracer)
			err := tickOnce(ctx, node, log.Printf)
			cancel()
			if err != nil {
				return fmt.Errorf("maintenance tick: %w", err)
			}
			st := node.Stats()
			log.Printf("stats: remote-allocs=%d shared-puts=%d remote-puts=%d evicted=%d free-recv=%d",
				st.RemoteAllocs, st.SharedPuts, st.RemotePuts, st.EvictedBlocks, node.RecvPool().FreeBytes())
			log.Printf("transport: rpcs=%d rtt-mean=%s rtt-p99=%s tx=%d rx=%d reconnects=%d",
				rpcRTT.Count(), rpcRTT.Mean(), rpcRTT.Quantile(0.99),
				bytesTx.Value(), bytesRx.Value(), reconnects.Value())
		case <-quit:
			log.Printf("SIGQUIT: flight recorder dump:\n%s", flight.Dump())
		case <-stop:
			if *drain {
				// Graceful decommission: migrate every hosted block to a
				// peer, announce the departure, and leave a redirect window
				// so stale clients chase moved blocks instead of erroring.
				ctx, cancel := context.WithTimeout(context.Background(), 2**tick)
				ctx = trace.WithTracer(ctx, tracer)
				moved, err := node.Decommission(ctx)
				cancel()
				if err != nil {
					log.Printf("drain: %v (%d blocks migrated)", err, moved)
				} else {
					log.Printf("drained: %d blocks migrated to peers", moved)
				}
			}
			log.Printf("dmnode %d shutting down", *id)
			return nil
		}
	}
}

// tickOnce runs one heartbeat/maintenance round: the control-plane exchange
// with this node's tree targets, re-replication queued for every peer the
// round reports down (seen first-hand or learned from a target's map deltas),
// then the repairs. Transient cluster conditions — a peer vanishing mid-tick
// (transport.ErrUnreachable), the round's deadline expiring, or the cluster
// momentarily lacking replacement capacity — are logged and left for the next
// tick to retry: Maintain keeps failed repairs queued. Any other error is
// returned and terminates the daemon.
func tickOnce(ctx context.Context, node *core.Node, logf func(format string, v ...any)) error {
	for _, e := range node.HeartbeatRound(ctx) {
		if e.Kind != cluster.EventNodeDown {
			continue
		}
		if queued := node.RepairLost(transport.NodeID(e.Node)); queued > 0 {
			logf("node %d down: queued %d repairs", e.Node, queued)
		}
	}
	repaired, err := node.Maintain(ctx)
	if repaired > 0 {
		logf("re-replicated %d entries", repaired)
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, transport.ErrUnreachable),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, core.ErrNoCandidates):
		logf("maintain: %v (retrying next tick)", err)
		return nil
	default:
		return fmt.Errorf("maintain: %w", err)
	}
}

// buildBalancer maps the -balancer flag to a placement policy, seeded per
// node so a cluster of daemons does not stampede the same peers.
func buildBalancer(name string, seed int64) (placement.Balancer, error) {
	switch name {
	case "power-of-two":
		return placement.NewPowerOfTwo(seed), nil
	case "load-aware":
		return placement.NewLoadAware(seed, 0), nil
	case "weighted-rr":
		return placement.NewWeightedRoundRobin(seed), nil
	case "round-robin":
		return placement.NewRoundRobin(), nil
	case "random":
		return placement.NewRandom(seed), nil
	default:
		return nil, fmt.Errorf("bad -balancer %q, want power-of-two, load-aware, weighted-rr, round-robin, or random", name)
	}
}

func parsePeers(s string) (map[transport.NodeID]string, error) {
	peers := map[transport.NodeID]string{}
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q, want id=host:port", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", id, err)
		}
		peers[transport.NodeID(n)] = addr
	}
	return peers, nil
}
