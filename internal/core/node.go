// Package core implements the per-node disaggregated memory orchestrator of
// §IV.B (Figure 1): the node manager with its node-coordinated shared memory
// pool, the cluster-wide send and receive buffer pools carved from
// RDMA-registered regions, and the four request paths — local disaggregated
// memory client and server (LDMC/LDMS) between virtual servers and their
// host, and remote disaggregated memory client and server (RDMC/RDMS)
// between nodes.
//
// A virtual server that outgrows its allocation Puts data entries through
// its LDMC; the LDMS first tries the node's shared memory pool and, when the
// node is out of idle memory, the RDMC replicates the entry into the receive
// pools of remote nodes selected by the group leader's candidate list and a
// pluggable balancing policy. The memory map tracking each entry's location
// lives in the owning virtual server (internal/pagetable).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/ec"
	"godm/internal/metrics"
	"godm/internal/pagetable"
	"godm/internal/placement"
	"godm/internal/replication"
	"godm/internal/slab"
	"godm/internal/trace"
	"godm/internal/transport"
)

// RecvRegionID is the well-known region every node exposes as its
// cluster-wide receive buffer pool.
const RecvRegionID transport.RegionID = 1

// Sentinel errors.
var (
	// ErrNoSpace is returned when the node-level shared memory pool cannot
	// hold the entry; the caller should fall through to remote memory.
	ErrNoSpace = errors.New("core: shared memory pool full")
	// ErrRemoteFull is returned when the chosen remote nodes cannot hold the
	// entry; the caller should fall through to disk.
	ErrRemoteFull = errors.New("core: remote memory full")
	// ErrNoCandidates is returned when no alive group member can be chosen.
	ErrNoCandidates = errors.New("core: no candidate remote nodes")
	// ErrUnknownServer is returned for operations on unregistered virtual
	// servers.
	ErrUnknownServer = errors.New("core: unknown virtual server")
)

// DefaultPoolShards is the lock-shard count used for the node's slab pools
// when Config.PoolShards is zero. It is a constant (not derived from the
// machine's core count) so simulated runs produce identical slab layouts on
// every host.
const DefaultPoolShards = 8

// DefaultFabricRTT is the round-trip time the default SLO objectives assume:
// the 1 ms emulated fabric latency this repo benchmarks against. Deployments
// on faster fabrics tighten it via Config.Objectives.
const DefaultFabricRTT = time.Millisecond

// Config shapes one node.
type Config struct {
	// ID is this node's identity on the fabric and in the directory.
	ID transport.NodeID
	// SharedPoolBytes is the capacity of the node-coordinated shared memory
	// pool (the aggregated x% donations of the node's virtual servers).
	SharedPoolBytes int64
	// SendPoolBytes is the capacity of the RDMA send buffer pool used to
	// stage outgoing batches.
	SendPoolBytes int64
	// RecvPoolBytes is the capacity of the receive buffer pool this node
	// donates to the cluster (must be a multiple of SlabSize).
	RecvPoolBytes int64
	// SlabSize is the registration granularity of all pools.
	SlabSize int
	// PoolShards is the lock-shard count for the node's slab pools: ops on
	// blocks in different shards never contend. 0 selects DefaultPoolShards;
	// 1 reproduces the single-lock allocator.
	PoolShards int
	// ReplicationFactor is the number of copies for each remote entry.
	ReplicationFactor int
	// Durability selects the remote durability policy: "" or "rf<N>" for N
	// full copies (N defaulting to ReplicationFactor), "rs<K>.<M>" for
	// RS(K, M) erasure coding — K data + M parity shards on K+M distinct
	// donors, any K of which recover the entry (DESIGN.md §16).
	Durability string
	// Balancer selects remote nodes; defaults to power-of-two-choices
	// seeded by the node ID.
	Balancer placement.Balancer
	// Objectives are the per-op-family latency SLOs driving good/bad tail
	// attribution and the slow-op watchdog. Nil selects
	// metrics.DefaultObjectives(DefaultFabricRTT).
	Objectives metrics.Objectives
}

// DefaultConfig returns a node shaped like the paper's testbed servers
// scaled down: 256 MiB shared pool, 64 MiB send pool, 256 MiB receive pool.
func DefaultConfig(id transport.NodeID) Config {
	return Config{
		ID:                id,
		SharedPoolBytes:   256 << 20,
		SendPoolBytes:     64 << 20,
		RecvPoolBytes:     256 << 20,
		SlabSize:          slab.DefaultSlabSize,
		ReplicationFactor: replication.DefaultFactor,
	}
}

func (c Config) validate() error {
	if c.SlabSize <= 0 {
		return fmt.Errorf("core: slab size %d must be positive", c.SlabSize)
	}
	if c.PoolShards < 0 {
		return fmt.Errorf("core: pool shards %d must be non-negative", c.PoolShards)
	}
	if c.RecvPoolBytes <= 0 || c.RecvPoolBytes%int64(c.SlabSize) != 0 {
		return fmt.Errorf("core: recv pool %d must be a positive multiple of slab size %d",
			c.RecvPoolBytes, c.SlabSize)
	}
	if c.ReplicationFactor < 1 {
		return fmt.Errorf("core: replication factor %d < 1", c.ReplicationFactor)
	}
	if _, err := parseDurability(c.Durability, c.ReplicationFactor); err != nil {
		return err
	}
	return nil
}

// nodeCounters holds the node's activity counters as atomics, so hot paths
// bump them without any lock.
type nodeCounters struct {
	sharedPuts     atomic.Int64
	remotePuts     atomic.Int64
	sharedGets     atomic.Int64
	remoteGets     atomic.Int64
	remoteAllocs   atomic.Int64
	evictedBlocks  atomic.Int64
	repairsDone    atomic.Int64
	balloonedBytes atomic.Int64
	harvestedBytes atomic.Int64
}

// Node is one physical machine's disaggregated memory manager.
//
// Locking is decomposed so independent ops on distinct blocks proceed in
// parallel end to end (see DESIGN.md §11): the slab pools shard internally,
// owner bookkeeping is one index behind a leaf lock a request takes once for
// all its entries, the rarely-written virtual-server registry sits behind an
// RWMutex, the repair queue behind its own mutex, and counters are atomics.
// No lock here is ever held across a transport call.
type Node struct {
	cfg Config
	ep  transport.Endpoint
	dir *cluster.Directory

	shared   *slab.Pool // node-coordinated shared memory pool
	send     *slab.Pool // cluster-wide DM send buffer pool
	recv     *slab.Pool // cluster-wide DM receive buffer pool (registered)
	recvBuf  []byte
	policy   replication.Policy // the active durability policy (rf<N> or rs<K>.<M>)
	remote   *remoteStore
	balancer placement.Balancer

	// vsMu guards the virtual-server registry (written only by AddServer and
	// SetBalloonCallback; read on every key resolution).
	vsMu      sync.RWMutex
	vservers  map[string]*VirtualServer
	vsByIndex []*VirtualServer

	owners *ownerIndex // who parked what in recv

	repairMu       sync.Mutex
	pendingRepairs []pendingRepair

	counters nodeCounters

	reg     *metrics.Registry // core request-path instrumentation
	replReg *metrics.Registry // replication protocol instrumentation
	ecReg   *metrics.Registry // coding policy instrumentation (nil unless rs<K>.<M>)
	met     coreMetrics       // pre-bound hot-path instruments from reg
	slos    *metrics.SLOSet   // per-op-family latency objectives (tail attribution)

	// obsStore is this node's fold point of the cluster observability plane:
	// the freshest metric digest heard per contributor (self always included).
	// obsSeq stamps the node's own digest so stale relays never regress it.
	obsStore *metrics.ClusterStore
	obsSeq   atomic.Uint64
	// digestRegs are extra named registries folded into the node's digest
	// (co-located engines attached via AttachDigestRegistry).
	digestMu   sync.Mutex
	digestRegs map[string]*metrics.Registry

	treeMu sync.Mutex
	tree   *metrics.Tree // optional: the process-wide tree served over opMetrics

	// drainMu guards the decommission state: once draining, the node refuses
	// new allocations and answers opLocate for migrated blocks with a
	// redirect tombstone from movedTo, kept per owner: keys are numbered per
	// owner.
	drainMu  sync.Mutex
	draining bool
	movedTo  map[transport.NodeID]map[uint64]movedBlock

	// syncMu guards the per-peer map-sync cursors used by HeartbeatRound to
	// ask each tree target only for deltas it has not yet seen.
	syncMu   sync.Mutex
	lastSync map[cluster.NodeID]cluster.Epoch
}

// coreMetrics pre-binds the request-path instruments so hot paths never take
// the registry's name-lookup lock.
type coreMetrics struct {
	sharedPuts       *metrics.Counter
	remotePuts       *metrics.Counter
	sharedGets       *metrics.Counter
	remoteGets       *metrics.Counter
	remoteAllocs     *metrics.Counter
	evictedBlocks    *metrics.Counter
	repairsDone      *metrics.Counter
	harvestedBytes   *metrics.Counter
	harvestMoved     *metrics.Counter
	recvFreeBytes    *metrics.Gauge
	remotePutLatency *metrics.Histogram
	remoteGetLatency *metrics.Histogram
}

func newCoreMetrics(reg *metrics.Registry) coreMetrics {
	return coreMetrics{
		sharedPuts:       reg.Counter("shared_puts"),
		remotePuts:       reg.Counter("remote_puts"),
		sharedGets:       reg.Counter("shared_gets"),
		remoteGets:       reg.Counter("remote_gets"),
		remoteAllocs:     reg.Counter("remote_allocs"),
		evictedBlocks:    reg.Counter("evicted_blocks"),
		repairsDone:      reg.Counter("repairs_done"),
		harvestedBytes:   reg.Counter("harvested_bytes"),
		harvestMoved:     reg.Counter("harvest_moved_blocks"),
		recvFreeBytes:    reg.Gauge("recv_free_bytes"),
		remotePutLatency: reg.Histogram("remote_put_latency"),
		remoteGetLatency: reg.Histogram("remote_get_latency"),
	}
}

type pendingRepair struct {
	key  uint64
	lost transport.NodeID
}

// NodeStats counts node-level activity.
type NodeStats struct {
	SharedPuts     int64
	RemotePuts     int64
	SharedGets     int64
	RemoteGets     int64
	RemoteAllocs   int64 // blocks we host for others
	EvictedBlocks  int64 // blocks we evicted from the recv pool
	RepairsDone    int64
	BalloonedBytes int64
	HarvestedBytes int64 // receive-pool budget clawed back for local use
}

// NewNode wires a node from its endpoint and the shared cluster directory.
// The endpoint must be exclusively owned by this node; NewNode installs the
// control-plane handler and registers the receive region.
func NewNode(cfg Config, ep transport.Endpoint, dir *cluster.Directory) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ep == nil || dir == nil {
		return nil, errors.New("core: nil endpoint or directory")
	}
	recvBuf, err := ep.RegisterRegion(RecvRegionID, int(cfg.RecvPoolBytes))
	if err != nil {
		return nil, fmt.Errorf("core: register receive region: %w", err)
	}
	shards := cfg.PoolShards
	if shards == 0 {
		shards = DefaultPoolShards
	}
	poolOpts := []slab.Option{slab.WithSlabSize(cfg.SlabSize), slab.WithShards(shards)}
	recv, err := slab.NewPoolOver(fmt.Sprintf("node%d.recv", cfg.ID), recvBuf, poolOpts...)
	if err != nil {
		return nil, err
	}
	shared, err := slab.NewPool(fmt.Sprintf("node%d.shared", cfg.ID), cfg.SharedPoolBytes, poolOpts...)
	if err != nil {
		return nil, err
	}
	send, err := slab.NewPool(fmt.Sprintf("node%d.send", cfg.ID), cfg.SendPoolBytes, poolOpts...)
	if err != nil {
		return nil, err
	}
	balancer := cfg.Balancer
	if balancer == nil {
		balancer = placement.NewPowerOfTwo(int64(cfg.ID) + 1)
	}
	n := &Node{
		cfg:      cfg,
		ep:       ep,
		dir:      dir,
		shared:   shared,
		send:     send,
		recv:     recv,
		recvBuf:  recvBuf,
		balancer: balancer,
		vservers: map[string]*VirtualServer{},
		owners:   newOwnerIndex(cfg.RecvPoolBytes, cfg.SlabSize),
		movedTo:  map[transport.NodeID]map[uint64]movedBlock{},
		lastSync: map[cluster.NodeID]cluster.Epoch{},
		reg:      metrics.NewRegistry(fmt.Sprintf("core/node-%d", cfg.ID)),
		replReg:  metrics.NewRegistry(fmt.Sprintf("replication/node-%d", cfg.ID)),
	}
	n.met = newCoreMetrics(n.reg)
	n.met.recvFreeBytes.Set(recv.FreeBytes())
	obj := cfg.Objectives
	if obj == nil {
		obj = metrics.DefaultObjectives(DefaultFabricRTT)
	}
	n.slos = metrics.NewSLOSet(n.reg, obj)
	n.obsStore = metrics.NewClusterStore(int64(cfg.ID))
	n.remote = &remoteStore{node: n, handles: map[remoteKey]remoteHandle{}}
	spec, err := parseDurability(cfg.Durability, cfg.ReplicationFactor)
	if err != nil {
		return nil, err
	}
	factor := cfg.ReplicationFactor
	if !spec.coding {
		factor = spec.rf
	}
	repl, err := replication.New(n.remote,
		replication.WithFactor(factor),
		replication.WithMetrics(n.replReg))
	if err != nil {
		return nil, err
	}
	n.policy = repl
	if spec.coding {
		n.ecReg = metrics.NewRegistry(fmt.Sprintf("ec/node-%d", cfg.ID))
		coding, err := ec.NewPolicy(spec.k, spec.m, n.remote,
			ec.WithPolicyMetrics(n.ecReg),
			ec.WithHedge(n.hedgeFor))
		if err != nil {
			return nil, err
		}
		n.policy = coding
		// Stripes must land on distinct failure domains when candidates carry
		// domain tags; plain balancers already guarantee distinct donors.
		n.balancer = placement.SpreadDomains(n.balancer)
	}
	ep.SetHandler(n.handleCall)
	dir.Join(cluster.NodeID(cfg.ID), n.recv.FreeBytes())
	return n, nil
}

// ID returns the node's fabric identity.
func (n *Node) ID() transport.NodeID { return n.cfg.ID }

// Endpoint returns the node's fabric attachment, for components (clients,
// caches) that ride the same connection.
func (n *Node) Endpoint() transport.Endpoint { return n.ep }

// SharedPool exposes the node-coordinated shared memory pool.
func (n *Node) SharedPool() *slab.Pool { return n.shared }

// SendPool exposes the RDMA send buffer pool used for staging batches.
func (n *Node) SendPool() *slab.Pool { return n.send }

// RecvPool exposes the receive buffer pool donated to the cluster.
func (n *Node) RecvPool() *slab.Pool { return n.recv }

// Stats returns a snapshot of the node's counters. The counters are atomics;
// the snapshot is a racy-but-monotonic composite under concurrent traffic.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		SharedPuts:     n.counters.sharedPuts.Load(),
		RemotePuts:     n.counters.remotePuts.Load(),
		SharedGets:     n.counters.sharedGets.Load(),
		RemoteGets:     n.counters.remoteGets.Load(),
		RemoteAllocs:   n.counters.remoteAllocs.Load(),
		EvictedBlocks:  n.counters.evictedBlocks.Load(),
		RepairsDone:    n.counters.repairsDone.Load(),
		BalloonedBytes: n.counters.balloonedBytes.Load(),
		HarvestedBytes: n.counters.harvestedBytes.Load(),
	}
}

// Metrics exposes the node's request-path instrumentation (puts, gets,
// latency histograms), for mounting under a process-wide metrics tree.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// ReplicationMetrics exposes the replication protocol's instrumentation.
func (n *Node) ReplicationMetrics() *metrics.Registry { return n.replReg }

// CodingMetrics exposes the coding policy's instrumentation; nil when the
// node runs plain replication.
func (n *Node) CodingMetrics() *metrics.Registry { return n.ecReg }

// DurabilityPolicy exposes the active durability policy ("rf3", "rs4.2").
func (n *Node) DurabilityPolicy() replication.Policy { return n.policy }

// hedgeFor derives the read hedge delay for one donor from the digest
// plane: twice the donor's served-get p99 (a healthy donor virtually never
// exceeds it, a struggling one will), falling back to the node's own get SLO
// objective before any digest for the donor has arrived.
func (n *Node) hedgeFor(peer replication.NodeID) time.Duration {
	if nd, ok := n.obsStore.Get(int64(peer)); ok {
		if hs, ok := nd.D.OpFamilyHistogram("get"); ok && hs.Count > 0 {
			if p99 := hs.Quantile(0.99); p99 > 0 {
				return 2 * p99
			}
		}
	}
	if slo, ok := n.slos.Get("get"); ok {
		return slo.Objective
	}
	return 0
}

// SetMetricsTree installs the process-wide metrics tree the node serves to
// remote stats clients over the control plane (dmctl stats).
func (n *Node) SetMetricsTree(t *metrics.Tree) {
	n.treeMu.Lock()
	n.tree = t
	n.treeMu.Unlock()
}

// metricsText renders what this node knows about its own instrumentation:
// the full tree when the daemon installed one, otherwise the node's own
// registries.
func (n *Node) metricsText() string {
	n.treeMu.Lock()
	t := n.tree
	n.treeMu.Unlock()
	if t != nil {
		return t.String()
	}
	out := n.reg.String() + n.replReg.String()
	if n.ecReg != nil {
		out += n.ecReg.String()
	}
	return out
}

// SLOs exposes the node's per-op-family latency objectives.
func (n *Node) SLOs() *metrics.SLOSet { return n.slos }

// ClusterStore exposes the node's observability fold point (the freshest
// digest per contributor), for the obs HTTP surface and tests.
func (n *Node) ClusterStore() *metrics.ClusterStore { return n.obsStore }

// AttachDigestRegistry folds an additional named registry into this node's
// digests, so co-located engines (a VM host's swap engine, say) surface in
// `dmctl top` and the `/cluster` fold alongside the core instruments.
// Re-attaching a name replaces the previous registry.
func (n *Node) AttachDigestRegistry(name string, reg *metrics.Registry) {
	n.digestMu.Lock()
	if n.digestRegs == nil {
		n.digestRegs = map[string]*metrics.Registry{}
	}
	n.digestRegs[name] = reg
	n.digestMu.Unlock()
}

// refreshDigest snapshots this node's registries into a freshly-sequenced
// digest, stores it as the self contribution, and returns it for piggyback.
func (n *Node) refreshDigest() metrics.NodeDigest {
	regs := map[string]*metrics.Registry{
		"core":        n.reg,
		"replication": n.replReg,
	}
	if n.ecReg != nil {
		regs["ec"] = n.ecReg
	}
	n.digestMu.Lock()
	for name, reg := range n.digestRegs {
		regs[name] = reg
	}
	n.digestMu.Unlock()
	nd := metrics.NodeDigest{
		Node: int64(n.cfg.ID),
		Seq:  n.obsSeq.Add(1),
		D:    metrics.DigestRegistries(regs),
	}
	n.obsStore.Update(nd)
	return nd
}

// ClusterView refreshes the self digest and returns everything this node's
// store has heard — at the tree root, the whole cluster.
func (n *Node) ClusterView() []metrics.NodeDigest {
	n.refreshDigest()
	return n.obsStore.Snapshot()
}

// digestsFor assembles the piggyback set for one heartbeat target: always the
// node's own digest (already refreshed this round), plus — when this node
// leads its group and is beating the root — the stored digests of its group
// members, so the root's store covers the cluster after two rounds. The set
// stays O(group size), matching the heartbeat fan-out itself.
func (n *Node) digestsFor(target cluster.NodeID, self metrics.NodeDigest) []metrics.NodeDigest {
	out := []metrics.NodeDigest{self}
	selfID := cluster.NodeID(n.cfg.ID)
	g, err := n.dir.GroupOf(selfID)
	if err != nil {
		return out
	}
	leader, ok := n.dir.Leader(g)
	if !ok || leader != selfID {
		return out
	}
	root, ok := n.dir.RootLeader()
	if !ok || target != root || root == selfID {
		return out
	}
	for _, nd := range n.obsStore.Snapshot() {
		if nd.Node == self.Node {
			continue
		}
		out = append(out, nd)
	}
	return out
}

// foldDigests adopts piggybacked digests from a heartbeat or relay, ignoring
// echoes of our own (we are the authority on our own instruments).
func (n *Node) foldDigests(set []metrics.NodeDigest) {
	for _, nd := range set {
		if nd.Node == int64(n.cfg.ID) {
			continue
		}
		n.obsStore.Update(nd)
	}
}

// AddServer registers a virtual server with the node manager. The donation
// is informational (the shared pool was sized from the aggregate donations
// at cluster initialization, §IV.F).
func (n *Node) AddServer(name string, donationBytes int64) (*VirtualServer, error) {
	n.vsMu.Lock()
	defer n.vsMu.Unlock()
	if _, ok := n.vservers[name]; ok {
		return nil, fmt.Errorf("core: virtual server %q already registered", name)
	}
	if len(n.vsByIndex) >= 1<<16 {
		return nil, errors.New("core: too many virtual servers")
	}
	vs := &VirtualServer{
		name:     name,
		index:    uint16(len(n.vsByIndex)),
		node:     n,
		donation: donationBytes,
		table:    pagetable.New(),
	}
	n.vservers[name] = vs
	n.vsByIndex = append(n.vsByIndex, vs)
	return vs, nil
}

// Server returns the named virtual server.
func (n *Node) Server(name string) (*VirtualServer, error) {
	n.vsMu.RLock()
	defer n.vsMu.RUnlock()
	vs, ok := n.vservers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownServer, name)
	}
	return vs, nil
}

// candidates lists alive members of this node's sharing group, excluding
// itself, as placement candidates weighted by advertised free memory. When
// the observability plane has a digest for a member, its served-get p99
// rides along as the candidate's latency figure, so a load-aware balancer
// can discount a roomy-but-saturated peer.
func (n *Node) candidates() ([]placement.Candidate, error) {
	group, err := n.dir.GroupOf(cluster.NodeID(n.cfg.ID))
	if err != nil {
		return nil, err
	}
	members := n.dir.GroupMembers(group)
	cands := make([]placement.Candidate, 0, len(members))
	for _, m := range members {
		if m.ID == cluster.NodeID(n.cfg.ID) {
			continue
		}
		c := placement.Candidate{Node: placement.NodeID(m.ID), FreeBytes: m.FreeBytes}
		if nd, ok := n.obsStore.Get(int64(m.ID)); ok {
			if hs, ok := nd.D.OpFamilyHistogram("get"); ok && hs.Count > 0 {
				c.Latency = hs.Quantile(0.99)
			}
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	return cands, nil
}

// pickRemotes selects count distinct remote nodes, excluding those listed.
func (n *Node) pickRemotes(count int, exclude []transport.NodeID) ([]replication.NodeID, error) {
	cands, err := n.candidates()
	if err != nil {
		return nil, err
	}
	cands = slices.DeleteFunc(cands, func(c placement.Candidate) bool {
		return slices.Contains(exclude, transport.NodeID(c.Node))
	})
	picked, err := n.balancer.Pick(cands, count)
	if err != nil {
		if errors.Is(err, placement.ErrInsufficientCandidates) {
			return nil, fmt.Errorf("%w: %v", ErrNoCandidates, err)
		}
		return nil, err
	}
	out := make([]replication.NodeID, len(picked))
	for i, p := range picked {
		out[i] = replication.NodeID(p)
	}
	return out, nil
}

// handleCall is the control-plane dispatcher (RDMS side).
func (n *Node) handleCall(ctx context.Context, from transport.NodeID, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return errorResp(errShortMessage), nil
	}
	_, sp := trace.Start(ctx, "core.handle")
	sp.AnnotateInt("op", int(payload[0]))
	defer sp.End()
	body := payload[1:]
	switch payload[0] {
	case opPut:
		req, err := decodePutReq(payload)
		if err != nil {
			return errorResp(err), nil
		}
		return n.handlePut(from, req), nil
	case opFree:
		req, err := decodeReleaseReq(payload)
		if err != nil {
			return errorResp(err), nil
		}
		return n.handleRelease(from, req), nil
	case opHeartbeat:
		req, err := decodeHeartbeatReq(payload)
		if err != nil {
			return errorResp(err), nil
		}
		n.dir.Join(cluster.NodeID(from), req.FreeBytes)
		n.foldDigests(req.Digests)
		return okResp(), nil
	case opEvicted:
		req, _, err := decode(body, (*evictedReq).fields)
		if err != nil {
			return errorResp(err), nil
		}
		n.handleEvicted(from, req)
		return okResp(), nil
	case opStats:
		return encode(stOK, statsResp{FreeBytes: n.recv.FreeBytes()}, (*statsResp).fields), nil
	case opMetrics:
		return encodeMetricsResp(n.metricsText()), nil
	case opCluster:
		return encodeClusterResp(n.ClusterView()), nil
	case opMapSync:
		req, _, err := cluster.DecodeSyncRequest(body)
		if err != nil {
			return errorResp(err), nil
		}
		return encodeMapSyncResp(n.dir.Sync(cluster.NodeID(n.cfg.ID), req)), nil
	case opLocate:
		req, _, err := decode(body, (*locateReq).fields)
		if err != nil {
			return errorResp(err), nil
		}
		return n.handleLocate(from, req), nil
	case opMoved:
		req, _, err := decode(body, (*movedReq).fields)
		if err != nil {
			return errorResp(err), nil
		}
		n.applyMoved(from, req)
		return okResp(), nil
	case opLeave:
		req, _, err := decode(body, (*leaveReq).fields)
		if err != nil {
			return errorResp(err), nil
		}
		n.dir.Leave(cluster.NodeID(req.Node))
		n.obsStore.Drop(int64(req.Node))
		return okResp(), nil
	case opDecommission:
		moved, err := n.Decommission(ctx)
		if err != nil {
			return errorResp(err), nil
		}
		return encode(stOK, decommissionResp{Moved: int32(moved)}, (*decommissionResp).fields), nil
	case opHarvest:
		req, _, err := decode(body, (*harvestReq).fields)
		if err != nil {
			return errorResp(err), nil
		}
		reclaimed, moved, err := n.Harvest(ctx, req.WantBytes)
		if err != nil {
			return errorResp(err), nil
		}
		return encode(stOK, harvestResp{Reclaimed: reclaimed, Moved: int32(moved)}, (*harvestResp).fields), nil
	case opShardStat:
		req, _, err := decode(body, (*shardStatReq).fields)
		if err != nil {
			return errorResp(err), nil
		}
		owner := cmp.Or(transport.NodeID(req.Owner), from)
		_, si := n.lookupKey(owner, req.Key)
		return encode(stOK, shardStatResp{Hosted: si.Tagged(), Idx: si.Idx, K: si.K, M: si.M}, (*shardStatResp).fields), nil
	default:
		return errorResp(fmt.Errorf("core: unknown op %d", payload[0])), nil
	}
}

// handlePut parks one payload per request entry in the receive pool for a
// remote owner (RDMS) in one control-plane round trip — a single Put and a
// §IV.H window batch are the same message: allocate a block per entry, copy
// the entry's payload bytes in, and once every entry has landed free the old
// blocks the request names.
//
// The window's blocks are taken with one slab.Pool.AllocRun per size class
// present, so the entries of a class land as one contiguous run of the region
// in request order — the layout that lets the owner read the window back with
// one one-sided read per class — unless the pool is so full that the run has
// to be pieced together from fragments. The request is all-or-nothing: every
// refusal is decided before anything is allocated, and if a class cannot be
// served the runs already taken for the others are freed, nothing old is
// released and the whole request fails, so the owner never has to track a
// partial window.
func (n *Node) handlePut(from transport.NodeID, req putReq) []byte {
	if n.Draining() {
		// A draining node must not hand out blocks: freed space staying
		// unreused is what keeps optimistic stale-epoch reads byte-correct
		// during the drain window.
		return noSpaceResp()
	}
	owner := cmp.Or(transport.NodeID(req.Owner), from)
	// What the request displaces is settled before anything is allocated: an
	// entry of a replayed or retried put names an offset that is free by now,
	// and one of the blocks allocated below may land exactly there.
	var few [4]hostedBlock
	old := n.resolve(owner, req.releases, few[:0])
	// An on-behalf (migration) or shard put for a key we host beyond what the
	// request displaces means a sibling replica or shard lives here: refuse,
	// whoever asks.
	if (owner != from || req.Shard.Tagged()) && n.hostsSibling(owner, req, old) {
		return noSpaceResp()
	}
	count := req.count()
	var fewClasses [4]classCount
	classes := fewClasses[:0]
	for i := 0; i < count; i++ {
		classes = countClass(classes, int(req.entry(i).Class))
	}
	// Every class stripes by the first entry's key. For one entry that is its
	// own key: concurrent puts for distinct keys take distinct locks within
	// one size class.
	hint := req.entry(0).Key
	var fewRuns [4]slab.Run
	runs := fewRuns[:0]
	for _, c := range classes {
		var err error
		if runs, err = n.recv.AllocRun(c.class, c.n, hint, runs); err != nil {
			for _, r := range runs {
				_ = n.recv.FreeRun(r)
			}
			if errors.Is(err, slab.ErrNoSpace) {
				return noSpaceResp()
			}
			return errorResp(err)
		}
	}
	// Bytes first, records after: a drain or harvest walks the index and must
	// never find a block whose payload has not landed. The blocks are ours alone
	// until the reply names their offsets: the copy needs no lock.
	var fewParked [4]slab.Run
	parked := append(fewParked[:0], runs...)
	reply := newPutResp(count)
	at := 0
	for i := 0; i < count; i++ {
		e := req.entry(i)
		_, off := popClass(runs, int(e.Class))
		at += copy(n.recvBuf[off:], req.payload[at:at+int(e.Len)])
		reply.setOffset(i, off)
	}
	n.owners.mu.Lock()
	for i := 0; i < count; i++ {
		e := req.entry(i)
		h, _ := popClass(parked, int(e.Class))
		n.owners.add(h, ownerRef{owner: owner, key: e.Key}, req.Shard)
	}
	n.owners.mu.Unlock()
	n.counters.remoteAllocs.Add(int64(count))
	n.met.remoteAllocs.Add(int64(count))
	// The new generation is installed; a displaced block that fails to free
	// is the eviction path's to reclaim, not a reason to fail the put.
	_ = n.freeOwned(old)
	n.met.recvFreeBytes.Set(n.recv.FreeBytes())
	return reply
}

// popClass takes the next block of class from runs, which hold one for every
// entry of the put they were allocated for.
func popClass(runs []slab.Run, class int) (slab.Handle, int64) {
	r := 0
	for runs[r].N == 0 || runs[r].First.Class != class {
		r++
	}
	return runs[r].Pop()
}

// classCount is how many entries of a put ask for one size class.
type classCount struct{ class, n int }

// countClass counts one more entry of class. A window holds a handful of
// classes, so the list is scanned.
func countClass(counts []classCount, class int) []classCount {
	for i := range counts {
		if counts[i].class == class {
			counts[i].n++
			return counts
		}
	}
	return append(counts, classCount{class: class, n: 1})
}

// resolve appends to into the live block at each offset a release list names,
// with the owner record the entry says it has: freeOwned frees those that do
// (ownerIndex.take says why an entry may name nothing).
func (n *Node) resolve(owner transport.NodeID, rel releaseReq, into []hostedBlock) []hostedBlock {
	for i, count := 0, rel.count(); i < count; i++ {
		key, off := rel.entry(i)
		if h, err := n.recv.HandleAt(off); err == nil {
			into = append(into, hostedBlock{h: h, ref: ownerRef{owner: owner, key: key}})
		}
	}
	return into
}

// hostsSibling reports whether owner has a block here, under a key of req,
// beyond those of old that are that key's still.
func (n *Node) hostsSibling(owner transport.NodeID, req putReq, old []hostedBlock) bool {
	n.owners.mu.Lock()
	defer n.owners.mu.Unlock()
	for i, count := 0, req.count(); i < count; i++ {
		ref := ownerRef{owner: owner, key: req.entry(i).Key}
		hosted, _ := n.owners.lookup(ref)
		for _, b := range old {
			if got, ok := n.owners.at(b.h); ok && got == ref && b.ref == ref {
				hosted--
			}
		}
		if hosted > 0 {
			return true
		}
	}
	return false
}

// freeOwned frees the blocks that are still the ref's they were resolved
// with, together with their owner records, 64 at a time: one hold of the index
// lock takes the records, slab.Pool.FreeAll takes each shard lock once per
// batch, not per block. Every block is tried; the first error is returned.
func (n *Node) freeOwned(blocks []hostedBlock) (first error) {
	var hs [64]slab.Handle
	for len(blocks) > 0 {
		taken := 0
		n.owners.mu.Lock()
		for _, b := range blocks[:min(len(blocks), len(hs))] {
			if _, ok := n.owners.take(b.h, &b.ref); ok {
				hs[taken] = b.h
				taken++
			}
		}
		n.owners.mu.Unlock()
		blocks = blocks[min(len(blocks), len(hs)):]
		if err := n.recv.FreeAll(hs[:taken]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// handleRelease releases receive-pool blocks (RDMS). Releasing a block that
// is already gone — evicted, or named twice in one request — is not an error
// (§IV.D failure semantics match local free of a gone page). Every entry is
// processed even if one fails; the first error is reported after the rest
// have been freed, so a partial failure can never strand the remaining
// blocks.
func (n *Node) handleRelease(from transport.NodeID, req releaseReq) []byte {
	var few [64]hostedBlock
	err := n.freeOwned(n.resolve(from, req, few[:0]))
	n.met.recvFreeBytes.Set(n.recv.FreeBytes())
	if err != nil {
		return errorResp(err)
	}
	return okResp()
}

// handleEvicted records that a remote host dropped one of our blocks; the
// next Maintain pass re-establishes the replication factor.
func (n *Node) handleEvicted(from transport.NodeID, req evictedReq) {
	n.remote.drop(from, req.Key)
	n.repairMu.Lock()
	n.pendingRepairs = append(n.pendingRepairs, pendingRepair{key: req.Key, lost: from})
	n.repairMu.Unlock()
}

// EvictRecvSlabs preemptively deregisters receive-pool slabs until at least
// wantBytes are reclaimed (policy (1) of §IV.F: a node under local memory
// pressure reduces the DRAM it donates as remote memory). Owners of evicted
// blocks are notified over the control plane so they can re-replicate.
func (n *Node) EvictRecvSlabs(ctx context.Context, wantBytes int64) (int64, error) {
	var reclaimed int64
	// Several evicted blocks — within one slab or across slabs evicted by
	// successive LRU passes — can be parked under the same (owner,key):
	// replicated windows and re-replication both land that way. Dedup across
	// the whole call so each owner hears about a key once, and a node
	// evicting its own parked blocks queues exactly one repair per key.
	notified := map[transport.NodeID]map[uint64]bool{}
	for reclaimed < wantBytes {
		victims, err := n.recv.EvictLRU()
		if err != nil {
			if errors.Is(err, slab.ErrEmpty) {
				break
			}
			return reclaimed, err
		}
		reclaimed += int64(n.cfg.SlabSize)
		var owners []ownerRef
		n.owners.mu.Lock()
		for _, h := range victims {
			if ref, ok := n.owners.take(h, nil); ok && !notified[ref.owner][ref.key] {
				if notified[ref.owner] == nil {
					notified[ref.owner] = map[uint64]bool{}
				}
				notified[ref.owner][ref.key] = true
				owners = append(owners, ref)
			}
		}
		n.owners.mu.Unlock()
		n.counters.evictedBlocks.Add(int64(len(victims)))
		n.met.evictedBlocks.Add(int64(len(victims)))
		for _, ref := range owners {
			// Best-effort notification; if the owner is unreachable its own
			// read path will discover the loss and fail over to replicas.
			n.notifyEvicted(ctx, ref)
		}
	}
	// Shrink the registered budget so the memory actually returns to the OS.
	n.recv.ShrinkEmpty(reclaimed)
	n.pruneOwners()
	return reclaimed, nil
}

// RepairLost enqueues re-replication for every remote entry whose replica set
// includes lost, as if the node had managed to send eviction notices before
// dying. A crashed host cannot notify anyone, so the failure detector is the
// only signal: call this for every EventNodeDown that HeartbeatRound returns
// (dmnode's tick loop does), then let the next Maintain pass restore the
// replication factor. It returns the number of entries queued.
func (n *Node) RepairLost(lost transport.NodeID) int {
	n.vsMu.RLock()
	servers := append([]*VirtualServer(nil), n.vsByIndex...)
	n.vsMu.RUnlock()
	queued := 0
	for _, vs := range servers {
		for _, id := range vs.table.EntriesOnNode(pagetable.NodeID(lost)) {
			key := vs.key(id)
			n.remote.drop(lost, key)
			n.repairMu.Lock()
			n.pendingRepairs = append(n.pendingRepairs, pendingRepair{key: key, lost: lost})
			n.repairMu.Unlock()
			queued++
		}
	}
	return queued
}

// maxParallelRepairs bounds how many deferred repairs one Maintain pass runs
// concurrently over a real fabric.
const maxParallelRepairs = 8

// repairJob is one Maintain unit of work: every lost donor queued for one
// entry, folded into a single Restore call so the policy sees the full
// damage at once (an RS stripe reconstructs all its missing shards from one
// survivor read; replication repairs each copy independently).
type repairJob struct {
	key  uint64
	lost []transport.NodeID
}

// Maintain performs deferred re-replication for blocks lost to remote
// evictions or failures. Call it periodically (the daemon does so from its
// tick loop; simulations from a maintenance process). Queued records are
// grouped by entry — all of an entry's lost donors repair in one policy
// Restore call — and a pass that restores only some of an entry's missing
// shards requeues exactly the remainder rather than collapsing into a
// binary repaired/failed verdict. Repairs that fail outright — typically
// because a source or replacement peer is unreachable right now — stay
// queued and are retried on the next call.
//
// Independent entries fan out concurrently over a real fabric (bounded by
// maxParallelRepairs); under the discrete-event simulation they stay serial,
// like every other fabric fan-out.
func (n *Node) Maintain(ctx context.Context) (repaired int, firstErr error) {
	n.repairMu.Lock()
	pending := n.pendingRepairs
	n.pendingRepairs = nil
	n.repairMu.Unlock()
	var jobs []repairJob
	byKey := map[uint64]int{}
	for _, p := range pending {
		i, ok := byKey[p.key]
		if !ok {
			i = len(jobs)
			byKey[p.key] = i
			jobs = append(jobs, repairJob{key: p.key})
		}
		if !slices.Contains(jobs[i].lost, p.lost) {
			jobs[i].lost = append(jobs[i].lost, p.lost)
		}
	}
	errs := make([]error, len(jobs))
	stills := make([][]transport.NodeID, len(jobs))
	// Workers draw jobs from a shared cursor. Under the simulation des.Each
	// runs them in turn, so the first drains the queue in order.
	var next atomic.Int64
	des.Each(ctx, min(len(jobs), maxParallelRepairs), func(int) error {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return nil
			}
			stills[i], errs[i] = n.repairEntry(ctx, jobs[i])
		}
	})
	var requeue []pendingRepair
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			for _, l := range jobs[i].lost {
				requeue = append(requeue, pendingRepair{key: jobs[i].key, lost: l})
			}
			continue
		}
		for _, l := range stills[i] {
			requeue = append(requeue, pendingRepair{key: jobs[i].key, lost: l})
		}
		if len(stills[i]) == 0 {
			repaired++
		}
	}
	n.repairMu.Lock()
	n.pendingRepairs = append(n.pendingRepairs, requeue...)
	n.repairMu.Unlock()
	n.counters.repairsDone.Add(int64(repaired))
	n.met.repairsDone.Add(int64(repaired))
	return repaired, firstErr
}

// repairEntry re-establishes one entry's durability via the active policy,
// returning the lost donors whose share could not be restored this pass.
func (n *Node) repairEntry(ctx context.Context, job repairJob) ([]transport.NodeID, error) {
	vs, id, err := n.resolveKey(job.key)
	if err != nil {
		return nil, err
	}
	loc, err := vs.table.Get(id)
	if err != nil || loc.Tier != pagetable.TierRemote {
		return nil, nil // entry gone or moved since the eviction: nothing to do
	}
	nodes := loc.Holders()
	lost := make([]replication.NodeID, len(job.lost))
	for i, l := range job.lost {
		lost[i] = replication.NodeID(l)
	}
	pick := func(count int, exclude []replication.NodeID) ([]replication.NodeID, error) {
		ex := make([]transport.NodeID, 0, len(exclude)+len(job.lost))
		for _, e := range exclude {
			ex = append(ex, transport.NodeID(e))
		}
		ex = append(ex, job.lost...)
		return n.pickRemotes(count, ex)
	}
	// Replacement copies reserve the class the entry was written with.
	newSet, still, err := n.policy.Restore(ctx, nodes, replication.EntryID(job.key), loc.StoredSize, lost, pick)
	if err != nil {
		return nil, fmt.Errorf("core: restore entry %d: %w", id, err)
	}
	vs.table.Put(id, loc.WithHolders(newSet))
	out := make([]transport.NodeID, len(still))
	for i, s := range still {
		out[i] = transport.NodeID(s)
	}
	return out, nil
}

// resolveKey splits a wire key into its virtual server and entry ID.
func (n *Node) resolveKey(key uint64) (*VirtualServer, pagetable.EntryID, error) {
	idx := int(key >> 48)
	n.vsMu.RLock()
	defer n.vsMu.RUnlock()
	if idx >= len(n.vsByIndex) {
		return nil, 0, fmt.Errorf("%w: index %d", ErrUnknownServer, idx)
	}
	return n.vsByIndex[idx], pagetable.EntryID(key & keyEntryMask), nil
}

// BalloonToServer moves up to wantBytes of budget from the shared memory
// pool to the named virtual server (policy (2) of §IV.F). It returns the
// bytes actually moved; the virtual server's balloon callback, if set,
// receives them (a swap manager grows its resident-set budget).
func (n *Node) BalloonToServer(name string, wantBytes int64) (int64, error) {
	vs, err := n.Server(name)
	if err != nil {
		return 0, err
	}
	moved := n.shared.ShrinkEmpty(wantBytes)
	if moved == 0 {
		return 0, nil
	}
	n.counters.balloonedBytes.Add(moved)
	n.vsMu.RLock()
	cb := vs.onBalloon
	n.vsMu.RUnlock()
	if cb != nil {
		cb(moved)
	}
	return moved, nil
}
