package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/pagetable"
	"godm/internal/placement"
	"godm/internal/simnet"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

// putRig is an owner (node 1) and n-1 donors on one fabric, "sim" or "tcp",
// sharing a directory. The owner's endpoint passes through wrap, places with
// a round-robin balancer (so donor sets are a function of the put sequence)
// and runs the given durability policy.
type putRig struct {
	nodes []*Node
	owner transport.Endpoint // the wrapped endpoint node 1 issues verbs on
	run   func(t *testing.T, body func(ctx context.Context))
}

func newPutRig(t *testing.T, fabric string, n int, durability string, wrap func(transport.Endpoint) transport.Endpoint) *putRig {
	t.Helper()
	return newShapedPutRig(t, fabric, n, durability, wrap, func(*Config) {})
}

// newShapedPutRig is newPutRig with every node's smallConfig passed through
// shape first.
func newShapedPutRig(t *testing.T, fabric string, n int, durability string, wrap func(transport.Endpoint) transport.Endpoint, shape func(*Config)) *putRig {
	t.Helper()
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: n, HeartbeatTimeout: 3})
	if err != nil {
		t.Fatal(err)
	}
	rig := &putRig{}
	eps := make([]transport.Endpoint, n)
	switch fabric {
	case "sim":
		env := des.NewEnv()
		net := simnet.New(env, simnet.DefaultParams())
		for i := range eps {
			if eps[i], err = net.Attach(transport.NodeID(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
		rig.run = func(t *testing.T, body func(ctx context.Context)) {
			t.Helper()
			env.Go("test", func(p *des.Proc) { body(des.NewContext(context.Background(), p)) })
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		}
	case "tcp":
		tcp := make([]*tcpnet.Endpoint, n)
		for i := range tcp {
			if tcp[i], err = tcpnet.Listen(transport.NodeID(i+1), "127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = tcp[i].Close() })
		}
		for i, ep := range tcp {
			for _, peer := range tcp {
				if peer != ep {
					ep.AddPeer(peer.ID(), peer.Addr())
				}
			}
			eps[i] = ep
		}
		rig.run = func(t *testing.T, body func(ctx context.Context)) { body(context.Background()) }
	default:
		t.Fatalf("unknown fabric %q", fabric)
	}
	for i, ep := range eps {
		cfg := smallConfig(ep.ID())
		shape(&cfg)
		if i == 0 {
			cfg.Durability = durability
			cfg.Balancer = placement.NewRoundRobin()
			if wrap != nil {
				ep = wrap(ep)
			}
			rig.owner = ep
		}
		node, err := NewNode(cfg, ep, dir)
		if err != nil {
			t.Fatal(err)
		}
		rig.nodes = append(rig.nodes, node)
	}
	return rig
}

// donorLive sums the donors' live receive-pool bytes.
func (rig *putRig) donorLive() (live int64) {
	for _, n := range rig.nodes[1:] {
		live += n.RecvPool().Stats().LiveBytes
	}
	return live
}

// countingVerbs counts what a layer above issues, per kind and per target. It
// forwards gather calls through transport.CallV, so what it counts is one
// two-sided verb however the payload is laid out. With a gate set, every call
// waits (bounded) until that many are in flight at once: calls that come out
// of one concurrent fan-out meet at the gate, calls issued one after another
// never do — which is how a test tells one round trip from several on a real
// fabric without timing anything.
type countingVerbs struct {
	transport.Endpoint

	mu       sync.Mutex
	calls    int
	writes   int
	reads    int // one-sided reads; not part of perNode, which orders a put's verbs
	perNode  map[transport.NodeID]int
	inflight int
	peak     int
	gate     int
	met      chan struct{}
}

func (c *countingVerbs) reset(gate int) {
	c.mu.Lock()
	c.calls, c.writes, c.reads, c.peak, c.gate = 0, 0, 0, 0, gate
	c.perNode = map[transport.NodeID]int{}
	c.met = make(chan struct{})
	c.mu.Unlock()
}

// maxPerNode is the most verbs any one node received: verbs to one node
// depend on each other (reserve, then write), verbs to distinct nodes need
// not, so it bounds the serial round trips from below on any fabric.
func (c *countingVerbs) maxPerNode() (most int) {
	for _, v := range c.perNode {
		most = max(most, v)
	}
	return most
}

func (c *countingVerbs) enter(to transport.NodeID) {
	c.mu.Lock()
	c.calls++
	c.perNode[to]++
	c.inflight++
	c.peak = max(c.peak, c.inflight)
	met, wait := c.met, c.gate > 0
	if wait && c.inflight == c.gate {
		close(met)
	}
	c.mu.Unlock()
	if wait {
		select {
		case <-met:
		case <-time.After(2 * time.Second):
		}
	}
}

func (c *countingVerbs) leave() {
	c.mu.Lock()
	c.inflight--
	c.mu.Unlock()
}

func (c *countingVerbs) Call(ctx context.Context, to transport.NodeID, payload []byte) ([]byte, error) {
	c.enter(to)
	defer c.leave()
	return c.Endpoint.Call(ctx, to, payload)
}

func (c *countingVerbs) CallV(ctx context.Context, to transport.NodeID, bufs [][]byte) ([]byte, error) {
	c.enter(to)
	defer c.leave()
	return transport.CallV(ctx, c.Endpoint, to, bufs)
}

func (c *countingVerbs) WriteRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, data []byte) error {
	c.mu.Lock()
	c.writes++
	c.perNode[to]++
	c.mu.Unlock()
	return c.Endpoint.WriteRegion(ctx, to, region, offset, data)
}

// ReadRegion is every one-sided read: the embedded interface hides the
// fabric's scatter read, so transport.ReadRegionInto lands here too.
func (c *countingVerbs) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	return c.Endpoint.ReadRegion(ctx, to, region, offset, n)
}

func (c *countingVerbs) WriteRegionV(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, bufs [][]byte) error {
	c.mu.Lock()
	c.writes++
	c.perNode[to]++
	c.mu.Unlock()
	return transport.WriteRegionV(ctx, c.Endpoint, to, region, offset, bufs)
}

// TestPutVerbCounts asserts, where `go test ./...` sees it, the counts the
// benchmark's traced pass reports: a remote put is one two-sided call per
// donor and no one-sided write; an overwrite adds one release per donor that
// leaves the set and nothing else; and all of them are one round trip — no
// node hears twice, and over real sockets every call is in flight at once.
func TestPutVerbCounts(t *testing.T) {
	for _, fabric := range []string{"sim", "tcp"} {
		for _, durability := range []string{"rf3", "rs4.2"} {
			t.Run(fabric+"/"+durability, func(t *testing.T) {
				cv := &countingVerbs{}
				rig := newPutRig(t, fabric, 8, durability, func(ep transport.Endpoint) transport.Endpoint {
					cv.Endpoint = ep
					return cv
				})
				vs, err := rig.nodes[0].AddServer("vm0", 0)
				if err != nil {
					t.Fatal(err)
				}
				width := rig.nodes[0].policy.Width()
				check := func(what string, wantCalls int) {
					t.Helper()
					if cv.calls != wantCalls || cv.writes != 0 {
						t.Errorf("%s: %d calls and %d one-sided writes, want %d and 0", what, cv.calls, cv.writes, wantCalls)
					}
					if got := cv.maxPerNode(); got != 1 {
						t.Errorf("%s: one node received %d verbs, want 1 (one serial round trip)", what, got)
					}
					if fabric == "tcp" && cv.peak != wantCalls {
						t.Errorf("%s: at most %d of %d calls in flight at once, want all (one round trip)", what, cv.peak, wantCalls)
					}
				}
				rig.run(t, func(ctx context.Context) {
					gate := func(n int) int {
						if fabric == "sim" {
							return 0 // a simulated process issues its fan-out serially by design
						}
						return n
					}
					data := bytes.Repeat([]byte{0xA5}, 4096)
					cv.reset(gate(width))
					if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
						t.Fatalf("fresh PutRemote: %v", err)
					}
					check("fresh put", width)

					// Round-robin over seven donors: the next set starts where
					// this one ended, so the old set loses all its donors when
					// two sets fit the ring (rf3) and 7 - width otherwise.
					old, _ := vs.Location(1)
					data[0] = 0x5A
					stale := min(width, 7-width)
					cv.reset(gate(width + stale))
					if err := vs.PutRemote(ctx, 1, data, 4096, 4096); err != nil {
						t.Fatalf("overwriting PutRemote: %v", err)
					}
					now, _ := vs.Location(1)
					left := 0
					for _, o := range old.Holders() {
						if !slices.Contains(now.Holders(), o) {
							left++
						}
					}
					if left != stale {
						t.Fatalf("%d donors left the set, the test expected %d", left, stale)
					}
					check("overwrite", width+stale)
					got, _, err := vs.Get(ctx, 1)
					if err != nil || !bytes.Equal(got, data) {
						t.Errorf("Get after overwrite: %d bytes, %v", len(got), err)
					}
				})
				want := int64(width * rig.nodes[0].policy.ShardClass(4096))
				if live := rig.donorLive(); live != want {
					t.Errorf("donors hold %d live bytes after the overwrite, want %d: one generation", live, want)
				}
			})
		}
	}
}

// TestClientPutVerbCounts: the client paths are one call each — a shrinking
// or growing overwrite and a window with displaced keys alike (the displaced
// blocks' release rides the call); none writes one-sided.
func TestClientPutVerbCounts(t *testing.T) {
	for _, fabric := range []string{"sim", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			rig := newPutRig(t, fabric, 2, "", nil)
			cv := &countingVerbs{Endpoint: rig.owner}
			client := NewClient(cv)
			donor := rig.nodes[1]
			rig.run(t, func(ctx context.Context) {
				step := func(what string, wantCalls, wantWrites int, wantLive int64, op func() error) {
					t.Helper()
					cv.reset(0)
					if err := op(); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if cv.calls != wantCalls || cv.writes != wantWrites {
						t.Errorf("%s: %d calls, %d writes, want %d, %d", what, cv.calls, cv.writes, wantCalls, wantWrites)
					}
					if live := donor.RecvPool().Stats().LiveBytes; live != wantLive {
						t.Errorf("%s: donor holds %d live bytes, want %d", what, live, wantLive)
					}
				}
				step("fresh Put", 1, 0, 1024, func() error { return client.Put(ctx, 2, 1, make([]byte, 1024)) })
				step("shrinking Put", 1, 0, 600, func() error { return client.Put(ctx, 2, 1, make([]byte, 600)) })
				step("growing Put", 1, 0, 4096, func() error { return client.Put(ctx, 2, 1, bytes.Repeat([]byte{7}, 4096)) })
				window := []Entry{
					{Key: 1, Data: bytes.Repeat([]byte{1}, 2048)}, // displaces the 4096 block
					{Key: 2, Data: bytes.Repeat([]byte{2}, 1024)},
					{Key: 3, Data: bytes.Repeat([]byte{3}, 512)},
				}
				step("PutAll displacing a key", 1, 0, 2048+1024+512, func() error { return client.PutAll(ctx, 2, window) })
				step("PutAll displacing every key", 1, 0, 2048+1024+512, func() error { return client.PutAll(ctx, 2, window) })
				got, err := client.GetAll(ctx, 2, []uint64{1, 2, 3})
				for _, e := range window {
					if err != nil || !bytes.Equal(got[e.Key], e.Data) {
						t.Errorf("GetAll key %d after the windows: %d bytes, %v", e.Key, len(got[e.Key]), err)
					}
				}
			})
		})
	}
}

// TestPutAllSplitsOversizedWindow: a window whose payloads exceed one frame
// goes out as frame-sized sub-batches and is still all-or-nothing — when the
// last sub-batch is refused the earlier ones are released and the versions
// the window would have displaced stay readable.
func TestPutAllSplitsOversizedWindow(t *testing.T) {
	const entryBytes = 4 << 20
	const n = transport.MaxFrameSize/entryBytes + 2 // 18 entries: two frames
	for _, tc := range []struct {
		name      string
		poolSlabs int // donor receive pool, in 4 MiB slabs
		wantErr   error
	}{
		{"fits", n + 1, nil},
		{"second sub-batch refused", n - 1, ErrRemoteFull},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster := newTestCluster(t, 2, func(id transport.NodeID) Config {
				cfg := smallConfig(id)
				cfg.SlabSize = entryBytes
				cfg.SharedPoolBytes, cfg.SendPoolBytes = entryBytes, entryBytes
				cfg.RecvPoolBytes = int64(tc.poolSlabs) * entryBytes
				return cfg
			})
			cv := &countingVerbs{Endpoint: cluster.nodes[0].ep}
			cv.reset(0)
			client := NewClient(cv)
			donor := cluster.nodes[1]
			shared := bytes.Repeat([]byte{0xC3}, entryBytes) // every entry's payload: one buffer, n slices of it
			small := []byte("the version the window displaces")
			cluster.run(t, func(ctx context.Context, p *des.Proc) {
				if err := client.Put(ctx, 2, n-1, small); err != nil { // the last key of the window
					t.Fatalf("seed Put: %v", err)
				}
				base := donor.RecvPool().Stats().LiveBytes
				entries := make([]Entry, n)
				for i := range entries {
					entries[i] = Entry{Key: uint64(i), Data: shared}
				}
				cv.reset(0)
				err := client.PutAll(ctx, 2, entries)
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("PutAll err = %v, want %v", err, tc.wantErr)
				}
				live := donor.RecvPool().Stats().LiveBytes
				if tc.wantErr == nil {
					if cv.calls != 2 || cv.writes != 0 {
						t.Errorf("%d calls and %d writes for a two-frame window, want 2 and 0", cv.calls, cv.writes)
					}
					if live != n*entryBytes {
						t.Errorf("donor holds %d live bytes, want %d: the window and nothing displaced", live, n*entryBytes)
					}
					dst := make([]byte, entryBytes)
					if _, err := client.GetInto(ctx, 2, n-1, dst); err != nil || !bytes.Equal(dst, shared) {
						t.Errorf("last entry of the window reads back wrong: %v", err)
					}
					return
				}
				if cv.calls != 3 { // two puts, one release of the first sub-batch
					t.Errorf("%d calls for a refused two-frame window, want 3", cv.calls)
				}
				if live != base {
					t.Errorf("donor holds %d live bytes after the refused window, want %d", live, base)
				}
				if got, err := client.Get(ctx, 2, n-1); err != nil || !bytes.Equal(got, small) {
					t.Errorf("displaced version after the refused window = %q, %v", got, err)
				}
				if donor.HostsRemoteKey(1, 0) {
					t.Error("donor still hosts the first sub-batch of a refused window")
				}
			})
		})
	}
}

// TestReleaseChecksWhatItFrees: a release that arrives after its block is
// gone and the offset re-issued — late, or replayed by the fabric — must not
// free the block that lives there now. On its own and riding a put.
func TestReleaseChecksWhatItFrees(t *testing.T) {
	tc := newTestCluster(t, 1, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.PoolShards = 1 // one free list: a freed offset is the next one issued
		return cfg
	})
	n := tc.nodes[0]
	const owner = transport.NodeID(9)
	ctx := context.Background()
	putOne := func(key uint64, old ...block) int64 {
		t.Helper()
		msg := putMessage(putParts{Entries: []putEntry{{Key: key, Class: 4096, Len: 1}}, Releases: old, Payload: []byte{byte(key)}})
		resp, err := n.handleCall(ctx, owner, msg)
		if err != nil {
			t.Fatal(err)
		}
		offs, err := decodePutResp(resp, 1)
		if err != nil {
			t.Fatalf("put key %d: %v", key, err)
		}
		return offs.offset(0)
	}
	release := func(from transport.NodeID, b block) {
		t.Helper()
		resp, err := n.handleCall(ctx, from, encodeReleaseReq([]block{b}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkOKResp(resp); err != nil {
			t.Fatalf("release of %+v: %v", b, err)
		}
	}
	first := putOne(1)
	release(owner, block{key: 1, offset: first})
	second := putOne(2)
	if second != first {
		t.Fatalf("key 2 landed at %d, the test needs it to reuse key 1's offset %d", second, first)
	}
	release(owner, block{key: 1, offset: first}) // the replay
	if !n.HostsRemoteKey(owner, 2) {
		t.Fatal("a replayed release of key 1 freed key 2's block")
	}
	release(owner+1, block{key: 2, offset: second}) // right key, not its owner
	if !n.HostsRemoteKey(owner, 2) {
		t.Fatal("another node's release freed key 2's block")
	}
	// Riding a put: key 3's put names key 1's stale block; then a true
	// overwrite of key 2 names key 2's.
	putOne(3, block{key: 1, offset: first})
	if !n.HostsRemoteKey(owner, 2) {
		t.Fatal("a stale release riding a put freed key 2's block")
	}
	putOne(2, block{key: 2, offset: second})
	if st := n.recv.Stats(); st.LiveBlocks != 2 {
		t.Fatalf("%d live blocks after overwriting key 2 beside key 3, want 2", st.LiveBlocks)
	}
	if h, err := n.recv.HandleAt(second); err == nil {
		t.Fatalf("key 2's old block %+v survived the put that displaced it", h)
	}
	// A put retried after its reply was lost names, as the block it displaces,
	// an offset its first delivery already freed — and the retry's own block
	// is allocated there. It must not free what it just parked.
	third := putOne(4)
	release(owner, block{key: 4, offset: third})
	retry := putOne(4, block{key: 4, offset: third})
	if retry != third {
		t.Fatalf("the retried put landed at %d, the test needs it at the stale offset %d", retry, third)
	}
	if _, ref, ok := n.ownerAt(retry); !ok || ref != (ownerRef{owner: owner, key: 4}) {
		t.Fatal("a retried put freed the block it had just parked at the offset its release names")
	}
}

// lostPut loses the next put sent to victim — and only that one: the release
// that rolls the old generation back must get through. With hang set the put
// is not refused but held until the caller's context is done; with delivered
// set it reaches the donor and only its reply is lost.
type lostPut struct {
	transport.Endpoint
	mu        sync.Mutex
	victim    transport.NodeID // 0: disarmed
	hang      bool
	delivered bool
}

func (l *lostPut) CallV(ctx context.Context, to transport.NodeID, bufs [][]byte) ([]byte, error) {
	l.mu.Lock()
	lose := l.victim == to && bufs[0][0] == opPut
	if lose {
		l.victim = 0
	}
	l.mu.Unlock()
	switch {
	case lose && l.hang:
		<-ctx.Done()
		return nil, ctx.Err()
	case lose && l.delivered:
		_, _ = transport.CallV(ctx, l.Endpoint, to, bufs)
		return nil, fmt.Errorf("%w: reply from node %d lost", transport.ErrUnreachable, to)
	case lose:
		return nil, fmt.Errorf("%w: put to node %d lost", transport.ErrUnreachable, to)
	}
	return transport.CallV(ctx, l.Endpoint, to, bufs)
}

// TestFailedOverwriteLeavesNothing: an overwrite whose fan-out loses one
// donor — one that holds a block of the old generation and was to take one
// of the new — leaves nothing of either generation anywhere: the entry is
// absent, no donor old or new hosts a block of it, and the owner's handle
// count and the donors' live bytes are back where they were. Both policies,
// both fabrics; over real sockets also with the caller's context dying
// mid-fan-out, so the rollback has only its detached context to ride.
func TestFailedOverwriteLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		fabric, durability string
		nodes              int // the owner and few enough donors that consecutive round-robin sets overlap
	}{
		{"sim", "rf3", 5}, {"tcp", "rf3", 5}, {"sim", "rs4.2", 8}, {"tcp", "rs4.2", 8},
	} {
		t.Run(tc.fabric+"/"+tc.durability+"/put lost", func(t *testing.T) {
			failedOverwrite(t, tc.fabric, tc.durability, tc.nodes, false)
		})
		if tc.fabric == "tcp" { // the simulated fabric never consults deadlines
			t.Run(tc.fabric+"/"+tc.durability+"/caller's context expires", func(t *testing.T) {
				failedOverwrite(t, tc.fabric, tc.durability, tc.nodes, true)
			})
		}
	}
}

func failedOverwrite(t *testing.T, fabric, durability string, nodes int, expire bool) {
	fault := &lostPut{hang: expire}
	rig := newPutRig(t, fabric, nodes, durability, func(ep transport.Endpoint) transport.Endpoint {
		fault.Endpoint = ep
		return fault
	})
	owner := rig.nodes[0]
	vs, err := owner.AddServer("vm0", 0)
	if err != nil {
		t.Fatal(err)
	}
	rig.run(t, func(ctx context.Context) {
		// A bystander entry, so the baseline is not zero.
		if err := vs.PutRemote(ctx, 2, bytes.Repeat([]byte{2}, 4096), 4096, 4096); err != nil {
			t.Fatalf("bystander PutRemote: %v", err)
		}
		baseHandles, baseLive := owner.remote.handleCount(), rig.donorLive()
		if err := vs.PutRemote(ctx, 1, bytes.Repeat([]byte{1}, 4096), 4096, 4096); err != nil {
			t.Fatalf("seed PutRemote: %v", err)
		}
		// The round-robin balancer has made two picks of width donors out of
		// nodes-1; the third starts where the second ended.
		old, _ := vs.Location(1)
		width, donors := owner.policy.Width(), nodes-1
		victim := transport.NodeID(0)
		for i := 0; i < width && victim == 0; i++ {
			next := pagetable.NodeID(2 + (2*width+i)%donors)
			if next == old.Primary {
				victim = transport.NodeID(next)
			}
			for _, r := range old.Replicas {
				if next == r {
					victim = transport.NodeID(next)
				}
			}
		}
		if victim == 0 {
			t.Fatalf("the next donor set shares nothing with %v; the rig is too wide", old)
		}
		fault.victim = victim
		wctx, cancel := ctx, context.CancelFunc(func() {})
		if expire {
			wctx, cancel = context.WithTimeout(ctx, 50*time.Millisecond)
		}
		werr := vs.PutRemote(wctx, 1, bytes.Repeat([]byte{3}, 4096), 4096, 4096)
		cancel()
		if werr == nil {
			t.Fatalf("overwrite with donor %d out of reach succeeded", victim)
		}
		if _, err := vs.Location(1); !errors.Is(err, pagetable.ErrNotFound) {
			t.Errorf("failed overwrite left a location: %v", err)
		}
		for _, n := range rig.nodes[1:] {
			if n.HostsRemoteKey(1, vs.WireKey(1)) {
				t.Errorf("node %d hosts a block of the entry after the failed overwrite", n.ID())
			}
		}
		if got := owner.remote.handleCount(); got != baseHandles {
			t.Errorf("owner tracks %d handles, want %d", got, baseHandles)
		}
		if got := rig.donorLive(); got != baseLive {
			t.Errorf("donors hold %d live bytes, want %d", got, baseLive)
		}
		// The entry is simply absent: its next put is a fresh one, and the
		// bystander never noticed.
		fresh := bytes.Repeat([]byte{4}, 4096)
		if err := vs.PutRemote(ctx, 1, fresh, 4096, 4096); err != nil {
			t.Fatalf("PutRemote after the failed overwrite: %v", err)
		}
		if got, _, err := vs.Get(ctx, 1); err != nil || !bytes.Equal(got, fresh) {
			t.Errorf("Get after re-put: %d bytes, %v", len(got), err)
		}
		if got, _, err := vs.Get(ctx, 2); err != nil || got[0] != 2 {
			t.Errorf("bystander Get: %d bytes, %v", len(got), err)
		}
	})
}

// TestHandlersKeepNothingOfTheirPayload: a handler's payload is lent to it —
// the TCP fabric recycles the buffer once the call is answered — so whatever
// handleCall keeps of a request it must have copied. Each request is
// scribbled over the moment the handler returns; the state it left behind
// must still read as sent.
func TestHandlersKeepNothingOfTheirPayload(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	n := tc.nodes[0]
	ctx := context.Background()
	deliver := func(from transport.NodeID, msg []byte) []byte {
		t.Helper()
		resp, err := n.handleCall(ctx, from, msg)
		if err != nil {
			t.Fatal(err)
		}
		resp = append([]byte(nil), resp...) // what the fabric would have put on the wire by now
		for i := range msg {
			msg[i] = 0xDB
		}
		if _, err := checkOKResp(resp); err != nil {
			t.Fatalf("refused: %v", err)
		}
		return resp
	}
	// A heartbeat's piggybacked digests land in the observability store.
	digests := goldenDigests()
	deliver(2, encodeHeartbeatReq(heartbeatReq{FreeBytes: 4242, Digests: digests}))
	for _, want := range digests {
		got, ok := n.obsStore.Get(want.Node)
		if !ok || !reflect.DeepEqual(got.D, want.D) {
			t.Errorf("digest of node %d after its heartbeat's buffer was recycled:\n%+v, want\n%+v", want.Node, got.D, want.D)
		}
	}
	// A put's payload lands in the receive pool; its reply names the block.
	body := bytes.Repeat([]byte("remote page "), 100)
	resp := deliver(2, putMessage(putParts{Entries: []putEntry{{Key: 7, Class: 4096, Len: int32(len(body))}}, Payload: body}))
	h, err := n.recv.HandleAt(putResp(resp).offset(0))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := n.recv.Read(h, len(body)); err != nil || !bytes.Equal(got, bytes.Repeat([]byte("remote page "), 100)) {
		t.Errorf("parked bytes after the put's buffer was recycled: %q, %v", got[:24], err)
	}
	if !n.HostsRemoteKey(2, 7) {
		t.Error("owner record of the put lost with its buffer")
	}
	// A map sync answers from the directory, a departure is recorded by value.
	deliver(2, encodeMapSyncReq(cluster.SyncRequest{Origin: 1}))
	deliver(2, encode(opLeave, leaveReq{Node: 2}, (*leaveReq).fields))
	for _, st := range n.dir.Snapshot() {
		if st.ID == 2 && st.Alive {
			t.Error("node 2 still alive in the directory after its leave")
		}
	}
}

// TestFailedClientPutNeverReadsAStrangersBlock: a client put that fails in
// transit leaves the version it was to displace in doubt — the donor may have
// run the put and freed it. If it did not, the old version must still read
// back (one locate settles it, once); if it did, the read must fail rather
// than return whatever the donor parked at that offset since. Single puts
// and windows, both fabrics.
func TestFailedClientPutNeverReadsAStrangersBlock(t *testing.T) {
	for _, fabric := range []string{"sim", "tcp"} {
		for _, delivered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/delivered=%v", fabric, delivered), func(t *testing.T) {
				rig := newPutRig(t, fabric, 2, "", nil)
				fault := &lostPut{Endpoint: rig.owner, delivered: delivered}
				cv := &countingVerbs{Endpoint: fault}
				cv.reset(0)
				client := NewClient(cv)
				bystander := NewClient(rig.owner) // the same fabric identity: the donor sees one owner
				old := map[uint64][]byte{1: bytes.Repeat([]byte{1}, 1024), 2: bytes.Repeat([]byte{2}, 1024), 3: bytes.Repeat([]byte{3}, 1024)}
				rig.run(t, func(ctx context.Context) {
					for k, v := range old {
						if err := client.Put(ctx, 2, k, v); err != nil {
							t.Fatalf("seed Put %d: %v", k, err)
						}
					}
					fault.victim = 2
					if err := client.Put(ctx, 2, 1, bytes.Repeat([]byte{0x11}, 2048)); err == nil {
						t.Fatal("Put whose call was lost succeeded")
					}
					fault.victim = 2
					window := []Entry{{Key: 2, Data: bytes.Repeat([]byte{0x22}, 2048)}, {Key: 3, Data: bytes.Repeat([]byte{0x33}, 2048)}}
					if err := client.PutAll(ctx, 2, window); err == nil {
						t.Fatal("PutAll whose call was lost succeeded")
					}
					// Whatever the donor freed is handed out again at once.
					for k := uint64(100); k < 103; k++ {
						if err := bystander.Put(ctx, 2, k, bytes.Repeat([]byte{0xEE}, 1024)); err != nil {
							t.Fatalf("bystander Put: %v", err)
						}
					}
					cv.reset(0)
					got, err := client.Get(ctx, 2, 1)
					all, allErr := client.GetAll(ctx, 2, []uint64{2, 3})
					if delivered {
						if err == nil || allErr == nil {
							t.Fatalf("reads through handles of freed blocks returned %x.. / %d entries, want errors", got[:4], len(all))
						}
						return
					}
					if err != nil || !bytes.Equal(got, old[1]) || allErr != nil || !bytes.Equal(all[2], old[2]) || !bytes.Equal(all[3], old[3]) {
						t.Fatalf("versions the lost puts never displaced do not read back: %v, %v", err, allErr)
					}
					if cv.calls != 3 {
						t.Errorf("%d calls to settle three doubted handles, want 3", cv.calls)
					}
					cv.reset(0)
					if _, err := client.Get(ctx, 2, 1); err != nil || cv.calls != 0 {
						t.Errorf("a settled handle asked again: %d calls, %v", cv.calls, err)
					}
				})
			})
		}
	}
}
