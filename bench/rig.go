package main

import (
	"fmt"
	"time"

	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/faulty"
	"godm/internal/placement"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

const (
	rigNodes = 8 // node 1 owns the data, nodes 2..8 donate
	// donorPoolBytes is each donor's receive pool. The workloads park at
	// most ~100 MiB in total; the pool only has to be roomy enough that
	// round-robin placement never meets a full donor. Larger pools would
	// only raise the Go heap target (pools count as live heap) and with it
	// max_rss_mb.
	donorPoolBytes = 64 << 20
	emulatedRTT    = time.Millisecond
)

// rig is the whole cluster inside the bench process: eight tcpnet endpoints
// on 127.0.0.1 — the host's loopback interface, not a real link.
type rig struct {
	eps    []*tcpnet.Endpoint
	nodes  []*core.Node // nodes[0] is the owner
	fabric transport.Endpoint
	inj    *faulty.Injector // nil unless the workload emulates an RTT
}

// newRig builds the cluster. durability is the owner's policy ("rf3",
// "rs4.2"); withRTT puts a fault injector on the owner's endpoint (armed
// later by armRTT, so pre-population runs at loopback speed); tr, when
// non-nil, adds the timing wrappers of the traced pass.
func newRig(durability string, withRTT bool, tr *tracer) (_ *rig, err error) {
	g := &rig{}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	addrs := map[transport.NodeID]string{}
	for i := 1; i <= rigNodes; i++ {
		ep, err := tcpnet.Listen(transport.NodeID(i), "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen node %d: %w", i, err)
		}
		g.eps = append(g.eps, ep)
		addrs[ep.ID()] = ep.Addr()
	}
	if withRTT {
		g.inj = faulty.New(1)
	}
	for i, ep := range g.eps {
		for id, addr := range addrs {
			if id != ep.ID() {
				ep.AddPeer(id, addr)
			}
		}
		dir, err := cluster.NewDirectory(cluster.Config{GroupSize: rigNodes, HeartbeatTimeout: 3})
		if err != nil {
			return nil, err
		}
		for j := 2; j <= rigNodes; j++ {
			dir.Join(cluster.NodeID(j), donorPoolBytes)
		}
		cfg := core.Config{
			ID: ep.ID(), SharedPoolBytes: 1 << 20, SendPoolBytes: 1 << 20,
			RecvPoolBytes: donorPoolBytes, SlabSize: 1 << 20, ReplicationFactor: 3,
		}
		var fabric transport.Endpoint = ep
		if i == 0 {
			cfg.RecvPoolBytes = 1 << 20 // the owner donates nothing worth naming
			cfg.Durability = durability
			cfg.Balancer = placement.NewRoundRobin() // deterministic donor sets
			var mws []transport.Middleware
			if tr != nil {
				mws = append(mws, timed(tr, levelOuter))
			}
			if g.inj != nil {
				mws = append(mws, g.inj.Middleware())
			}
			if tr != nil {
				mws = append(mws, timed(tr, levelInner))
			}
			fabric = transport.Chain(ep, mws...)
			g.fabric = fabric
		} else if tr != nil {
			fabric = timed(tr, levelOuter)(ep) // donors: handler timing only
		}
		node, err := core.NewNode(cfg, fabric, dir)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", ep.ID(), err)
		}
		g.nodes = append(g.nodes, node)
	}
	return g, nil
}

func (g *rig) owner() *core.Node    { return g.nodes[0] }
func (g *rig) donors() []*core.Node { return g.nodes[1:] }

// armRTT starts delaying every verb the owner issues by the emulated RTT.
func (g *rig) armRTT() {
	g.inj.AddRule(faulty.Rule{Kind: faulty.KindDelay, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100, Delay: emulatedRTT})
}

// donorLive sums what the donors' receive pools hold.
func (g *rig) donorLive() (bytes int64, blocks int) {
	for _, n := range g.donors() {
		st := n.RecvPool().Stats()
		bytes += st.LiveBytes
		blocks += st.LiveBlocks
	}
	return bytes, blocks
}

// close stops every endpoint; tcpnet's Close waits for its goroutines.
func (g *rig) close() {
	for _, ep := range g.eps {
		_ = ep.Close()
	}
}
