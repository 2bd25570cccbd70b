// Package godm is a disaggregated-memory toolkit for Go: a complete,
// simulation-backed implementation of the architecture described in
// "Memory Disaggregation: Research Problems and Opportunities" (Liu et al.,
// ICDCS 2019).
//
// The toolkit provides:
//
//   - A per-node disaggregated memory orchestrator (the paper's Figure 1):
//     a node-coordinated shared memory pool fed by virtual-server donations,
//     cluster-wide send/receive buffer pools in RDMA-style registered
//     regions, transparent put/get for data entries with triple-replica
//     fault tolerance, hierarchical sharing groups with leader election,
//     and pluggable memory-balancing policies.
//   - FastSwap, a hybrid swapping system over that substrate (page
//     compression with size-class granularities, window-based batch
//     swap-out, proactive batch swap-in), plus the paper's baselines:
//     Linux disk swap, Zswap, Infiniswap, and NBDX.
//   - DAHI, disaggregated caching of Spark-style RDD partitions, with a
//     miniature lineage-driven execution engine.
//   - Two interchangeable fabrics: a deterministic discrete-event simulated
//     56 Gbps InfiniBand network (used by every experiment) and a real TCP
//     transport for multi-process deployments.
//   - Runners for every table and figure in the paper's evaluation.
//
// # Quick start
//
// Build a simulated cluster, register a virtual server, and let its data
// entries overflow transparently into node-level and then cluster-level
// disaggregated memory:
//
//	c, err := godm.NewSimCluster(godm.SimClusterConfig{Nodes: 4})
//	...
//	vs, err := c.Node(0).AddServer("vm0", 64<<20)
//	...
//	err = c.Run(func(ctx context.Context) error {
//		tier, err := vs.Put(ctx, 1, page, 4096, 4096)
//		...
//	})
package godm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"godm/internal/cluster"
	"godm/internal/compress"
	"godm/internal/core"
	"godm/internal/des"
	"godm/internal/dmcache"
	"godm/internal/exp"
	"godm/internal/kv"
	"godm/internal/memdev"
	"godm/internal/pagetable"
	"godm/internal/placement"
	"godm/internal/rdd"
	"godm/internal/simnet"
	"godm/internal/swap"
	"godm/internal/tcpnet"
	"godm/internal/transport"
	"godm/internal/workload"
)

// Core identifiers and data types, re-exported for the public API.
type (
	// NodeID names a node on the fabric.
	NodeID = transport.NodeID
	// EntryID names a data entry within one virtual server's memory map.
	EntryID = pagetable.EntryID
	// Tier says where a data entry lives.
	Tier = pagetable.Tier
	// Location is a memory-map record.
	Location = pagetable.Location

	// Node is a per-machine disaggregated memory manager.
	Node = core.Node
	// NodeConfig shapes a Node.
	NodeConfig = core.Config
	// VirtualServer is one VM/container/executor's view of disaggregated
	// memory (the LDMC of the paper's Figure 1).
	VirtualServer = core.VirtualServer
	// Client parks entries in a peer's receive pool directly.
	Client = core.Client
	// Entry is one key/payload pair for the batched data plane
	// (Client.PutAll / Window).
	Entry = core.Entry
	// ClientWindow is the §IV.H staging window: entries accumulate and
	// flush to a peer as one batched PutAll.
	ClientWindow = core.Window
	// ClientOption tunes a Client (e.g. WithClientCompression).
	ClientOption = core.ClientOption
	// PolicyEngine applies the §IV.F eviction/ballooning/regrouping
	// policies to a node.
	PolicyEngine = core.PolicyEngine
	// PolicyEngineConfig tunes the policy thresholds.
	PolicyEngineConfig = core.PolicyConfig
	// PolicyActions reports what one policy pass did.
	PolicyActions = core.PolicyActions

	// SwapConfig selects a swapping system.
	SwapConfig = swap.Config
	// SwapManager is a virtual server's page-fault engine.
	SwapManager = swap.Manager
	// SwapDeps wires a SwapManager to its devices.
	SwapDeps = swap.Deps
	// SwapStats counts swapping activity.
	SwapStats = swap.Stats

	// KVServer is a key-value server paged by a SwapManager.
	KVServer = kv.Server

	// RemoteCache is a two-tier key-value cache over peers' idle memory
	// (the paper's §III key-value caching killer app).
	RemoteCache = dmcache.Cache
	// RemoteCacheConfig shapes a RemoteCache.
	RemoteCacheConfig = dmcache.Config
	// RemoteCacheStats counts cache activity.
	RemoteCacheStats = dmcache.Stats

	// RDDEngine builds Spark-style datasets.
	RDDEngine = rdd.Engine
	// RDDExecutor runs partitions with bounded memory.
	RDDExecutor = rdd.Executor
	// RDDExecutorConfig shapes an executor.
	RDDExecutorConfig = rdd.ExecutorConfig
	// Dataset is a lazily evaluated RDD.
	Dataset = rdd.Dataset

	// WorkloadProfile describes a Table-1 application.
	WorkloadProfile = workload.Profile

	// Scale sets experiment sizes.
	Scale = exp.Scale
	// Experiment reproduces one table or figure.
	Experiment = exp.Experiment

	// Balancer selects remote nodes for placement.
	Balancer = placement.Balancer

	// Granularity is a compression size-class list.
	Granularity = compress.Granularity
)

// Tier values.
const (
	TierSharedMemory = pagetable.TierSharedMemory
	TierSendBuffer   = pagetable.TierSendBuffer
	TierRemote       = pagetable.TierRemote
	TierDisk         = pagetable.TierDisk
)

// Re-exported constructors and catalogs.
var (
	// FastSwapConfig builds the full FastSwap system (resident pages,
	// node:cluster distribution ratio 0-10, proactive batch swap-in).
	FastSwapConfig = swap.FastSwap
	// LinuxConfig, ZswapConfig, InfiniswapConfig, and NBDXConfig build the
	// paper's baselines.
	LinuxConfig      = swap.Linux
	ZswapConfig      = swap.Zswap
	InfiniswapConfig = swap.Infiniswap
	NBDXConfig       = swap.NBDX
	// XMemPodConfig adds the [36] flash tier between remote memory and disk.
	XMemPodConfig = swap.XMemPod

	// NewPolicyEngine binds the §IV.F policy engine to a node.
	NewPolicyEngine = core.NewPolicyEngine
	// DefaultPolicyEngineConfig returns testbed-calibrated thresholds.
	DefaultPolicyEngineConfig = core.DefaultPolicyConfig

	// Workloads returns the Table-1 application catalog.
	Workloads = workload.Catalog
	// WorkloadByName fetches one application profile.
	WorkloadByName = workload.ByName

	// Experiments lists every table/figure runner.
	Experiments = exp.Registry
	// ExperimentByID fetches one runner.
	ExperimentByID = exp.ByID
	// DefaultScale is the CI-friendly experiment size.
	DefaultScale = exp.DefaultScale

	// NewRemoteCache builds a two-tier cache over disaggregated memory.
	NewRemoteCache = dmcache.New

	// NewClient wraps a transport attachment in a receive-pool client;
	// DialClient is the TCP convenience wrapper (it accepts no client
	// options — construct via NewClient to pass any).
	NewClient = core.NewClient
	// WithClientCompression compresses entries >= minSize into smaller §IV.H
	// size classes before they cross the fabric (0 = default threshold),
	// with internal/compress's LZ block codec; an entry that does not reach
	// a smaller class travels raw.
	WithClientCompression = core.WithCompression

	// Balancer constructors (§IV.E policies).
	NewRandomBalancer     = placement.NewRandom
	NewRoundRobinBalancer = placement.NewRoundRobin
	NewWeightedBalancer   = placement.NewWeightedRoundRobin
	NewPowerOfTwoBalancer = placement.NewPowerOfTwo
)

// SimClusterConfig shapes an in-process simulated cluster.
type SimClusterConfig struct {
	// Nodes is the cluster size (default 4).
	Nodes int
	// SharedPoolBytes is each node's shared memory pool (default 64 MiB).
	SharedPoolBytes int64
	// RecvPoolBytes is each node's donated receive pool (default 64 MiB,
	// must be a 1 MiB multiple).
	RecvPoolBytes int64
	// ReplicationFactor for remote entries (default 3, the paper's
	// triple-replica modularity).
	ReplicationFactor int
	// GroupSize partitions nodes into sharing groups (default: all one
	// group).
	GroupSize int
	// PoolShards is the number of lock shards per memory pool (0 selects
	// the library default; 1 reproduces the single-lock pool).
	PoolShards int
}

// SimCluster is an in-process cluster on the simulated RDMA fabric. All
// operations run in simulated time through Run.
type SimCluster struct {
	env    *des.Env
	fabric *simnet.Fabric
	dir    *cluster.Directory
	nodes  []*core.Node
	params memdev.Params
	dram   *memdev.DRAM
	shm    *memdev.SharedMem
}

// NewSimCluster builds a simulated cluster.
func NewSimCluster(cfg SimClusterConfig) (*SimCluster, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.Nodes < 1 {
		return nil, errors.New("godm: cluster needs at least one node")
	}
	if cfg.SharedPoolBytes == 0 {
		cfg.SharedPoolBytes = 64 << 20
	}
	if cfg.RecvPoolBytes == 0 {
		cfg.RecvPoolBytes = 64 << 20
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = 3
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = cfg.Nodes
	}
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: cfg.GroupSize, HeartbeatTimeout: 3})
	if err != nil {
		return nil, err
	}
	params := memdev.DefaultParams()
	sc := &SimCluster{
		env:    env,
		fabric: fabric,
		dir:    dir,
		params: params,
		dram:   memdev.NewDRAM(params),
		shm:    memdev.NewSharedMem(params),
	}
	for i := 1; i <= cfg.Nodes; i++ {
		ep, err := fabric.Attach(transport.NodeID(i))
		if err != nil {
			return nil, err
		}
		node, err := core.NewNode(core.Config{
			ID:                transport.NodeID(i),
			SharedPoolBytes:   cfg.SharedPoolBytes,
			SendPoolBytes:     16 << 20,
			RecvPoolBytes:     cfg.RecvPoolBytes,
			SlabSize:          1 << 20,
			ReplicationFactor: cfg.ReplicationFactor,
			PoolShards:        cfg.PoolShards,
		}, ep, dir)
		if err != nil {
			return nil, err
		}
		sc.nodes = append(sc.nodes, node)
	}
	return sc, nil
}

// NodeCount returns the cluster size.
func (c *SimCluster) NodeCount() int { return len(c.nodes) }

// Node returns node i (0-based).
func (c *SimCluster) Node(i int) *Node { return c.nodes[i] }

// Partition cuts connectivity between two nodes (0-based indices), for
// fault-injection scenarios.
func (c *SimCluster) Partition(i, j int) {
	c.fabric.Partition(c.nodes[i].ID(), c.nodes[j].ID())
}

// Heal restores connectivity between two nodes.
func (c *SimCluster) Heal(i, j int) {
	c.fabric.Heal(c.nodes[i].ID(), c.nodes[j].ID())
}

// Run executes body in simulated time and drives the simulation until all
// work completes. The context it passes carries the simulation process that
// every cluster operation charges its latency to.
func (c *SimCluster) Run(body func(ctx context.Context) error) error {
	var bodyErr error
	c.env.Go("main", func(p *des.Proc) {
		bodyErr = body(des.NewContext(context.Background(), p))
	})
	if err := c.env.Run(); err != nil {
		return err
	}
	return bodyErr
}

// Go spawns an additional concurrent simulated process (background pumps,
// competing tenants). Call before or inside Run.
func (c *SimCluster) Go(name string, body func(ctx context.Context)) {
	c.env.Go(name, func(p *des.Proc) {
		body(des.NewContext(context.Background(), p))
	})
}

// Elapsed reports the current simulated time.
func (c *SimCluster) Elapsed() time.Duration { return c.env.Now() }

// NewSwapManager builds a swapping system for a fresh virtual server named
// name on node 0, with its own simulated swap disk.
func (c *SimCluster) NewSwapManager(name string, cfg SwapConfig) (*SwapManager, error) {
	deps, err := c.SwapDepsFor(name)
	if err != nil {
		return nil, err
	}
	if cfg.NodeRatio < 0 && !cfg.RemoteEnabled {
		deps.VS = nil
	}
	return swap.NewManager(cfg, deps)
}

// SwapDepsFor registers a virtual server on node 0 and returns the device
// wiring for a custom SwapManager.
func (c *SimCluster) SwapDepsFor(name string) (SwapDeps, error) {
	vs, err := c.nodes[0].AddServer(name, 0)
	if err != nil {
		return SwapDeps{}, err
	}
	return swap.Deps{
		VS:     vs,
		DRAM:   c.dram,
		Shared: c.shm,
		Disk:   memdev.NewDisk(c.env, name+".swap", c.params),
	}, nil
}

// NewKVServer builds a key-value server over a fresh swap manager. window
// is the throughput time-series bucket width (0 defaults to 100 ms).
func (c *SimCluster) NewKVServer(name string, prof WorkloadProfile, cfg SwapConfig, pages int, window time.Duration) (*KVServer, error) {
	mgr, err := c.NewSwapManager(name, cfg)
	if err != nil {
		return nil, err
	}
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	return kv.NewServer(prof, mgr, pages, window)
}

// NewRDDExecutor builds a Spark-style executor. With DAHI enabled the
// executor parks overflow partitions in disaggregated memory; otherwise it
// behaves like vanilla Spark (recompute on overflow).
func (c *SimCluster) NewRDDExecutor(name string, memPages int, dahi bool) (*RDDExecutor, error) {
	cfg := rdd.ExecutorConfig{
		Name:     name,
		Mode:     rdd.ModeVanilla,
		MemPages: memPages,
		DRAM:     c.dram,
		Disk:     memdev.NewDisk(c.env, name+".hdfs", c.params),
	}
	if dahi {
		vs, err := c.nodes[0].AddServer(name, 0)
		if err != nil {
			return nil, err
		}
		cfg.Mode = rdd.ModeDAHI
		cfg.VS = vs
		cfg.SHM = c.shm
	}
	return rdd.NewExecutor(cfg)
}

// NewRDDEngine wraps an executor for building datasets.
func NewRDDEngine(exec *RDDExecutor) *RDDEngine { return rdd.NewEngine(exec) }

// ListenNode starts a real disaggregated memory node serving the verbs
// protocol on addr over TCP (use cmd/dmnode for the packaged daemon). peers
// maps the other nodes' IDs to their addresses; opts configure the transport
// (tcpnet.WithMetrics mounts its instrumentation on a daemon's registry).
func ListenNode(cfg NodeConfig, addr string, peers map[NodeID]string, opts ...tcpnet.Option) (*Node, *tcpnet.Endpoint, error) {
	ep, err := tcpnet.Listen(cfg.ID, addr, opts...)
	if err != nil {
		return nil, nil, err
	}
	for id, peerAddr := range peers {
		ep.AddPeer(id, peerAddr)
	}
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: len(peers) + 1, HeartbeatTimeout: 3})
	if err != nil {
		_ = ep.Close()
		return nil, nil, err
	}
	for id := range peers {
		dir.Join(cluster.NodeID(id), 0)
	}
	node, err := core.NewNode(cfg, ep, dir)
	if err != nil {
		_ = ep.Close()
		return nil, nil, err
	}
	return node, ep, nil
}

// DialClient attaches a lightweight client to a TCP cluster for direct use
// of peers' receive pools. opts configure the transport, as in ListenNode.
func DialClient(id NodeID, addr string, peers map[NodeID]string, opts ...tcpnet.Option) (*Client, *tcpnet.Endpoint, error) {
	ep, err := tcpnet.Listen(id, addr, opts...)
	if err != nil {
		return nil, nil, err
	}
	for peerID, peerAddr := range peers {
		ep.AddPeer(peerID, peerAddr)
	}
	return core.NewClient(ep), ep, nil
}

// SleepSim suspends the calling simulated process for d of simulated time.
// It panics if ctx was not produced by SimCluster.Run or SimCluster.Go.
func SleepSim(ctx context.Context, d time.Duration) {
	p, ok := des.FromContext(ctx)
	if !ok {
		panic("godm: context does not carry a simulation process")
	}
	p.Sleep(d)
}

// RunExperiment executes the named table/figure reproduction and returns its
// rendered result.
func RunExperiment(id string, scale Scale) (string, error) {
	e, err := exp.ByID(id)
	if err != nil {
		return "", err
	}
	res, err := e.Run(scale)
	if err != nil {
		return "", fmt.Errorf("godm: experiment %s: %w", id, err)
	}
	return res.String(), nil
}
