package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"godm/internal/pagetable"
	"godm/internal/transport"
)

// readGate sits on the owner's endpoint, counts one-sided reads and fails the
// ones aimed at a dead node. It forwards the scatter read, so a healthy read
// still lands in the caller's buffer the way the bare fabric would put it.
type readGate struct {
	transport.Endpoint

	mu    sync.Mutex
	reads int
	dead  map[transport.NodeID]bool
}

func (g *readGate) admit(to transport.NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reads++
	if g.dead[to] {
		return fmt.Errorf("%w: node %d (test)", transport.ErrUnreachable, to)
	}
	return nil
}

func (g *readGate) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	if err := g.admit(to); err != nil {
		return nil, err
	}
	return g.Endpoint.ReadRegion(ctx, to, region, offset, n)
}

func (g *readGate) ReadRegionInto(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	if err := g.admit(to); err != nil {
		return err
	}
	return transport.ReadRegionInto(ctx, g.Endpoint, to, region, offset, dst)
}

// kill makes node the one dead node.
func (g *readGate) kill(node transport.NodeID) {
	g.mu.Lock()
	g.dead = map[transport.NodeID]bool{node: true}
	g.mu.Unlock()
}

func (g *readGate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reads
}

// TestGetIntoMatchesGet: on every tier, under both policies and on both
// fabrics, GetInto and GetAtInto put in the caller's buffer exactly the bytes
// Get returns, whole and by range — with every donor up, and with the first one down so
// a replicated read fails over to the second replica and a striped read
// reconstructs from parity. A buffer shorter than the stored size is refused
// before a single read is issued.
func TestGetIntoMatchesGet(t *testing.T) {
	type entry struct {
		id      pagetable.EntryID
		payload []byte
		class   int
	}
	entries := []entry{
		{1, ecPayload(4096, 41), 4096}, // fills its class
		{2, ecPayload(3000, 42), 4096}, // stops short of it; under rs4.2 the last shard is padding
		{3, ecPayload(100, 43), 512},
	}
	ranges := [][2]int{{0, 1}, {0, 100}, {17, 64}, {700, 200}, {749, 2}, {1023, 2}, {2990, 10}, {0, 3000}}
	for _, fabric := range []string{"sim", "tcp"} {
		for _, tier := range []string{"shared", "rf3", "rs4.2"} {
			t.Run(fabric+"/"+tier, func(t *testing.T) {
				durability := tier
				if tier == "shared" {
					durability = "rf3"
				}
				gate := &readGate{}
				rig := newShapedPutRig(t, fabric, 8, durability, func(ep transport.Endpoint) transport.Endpoint {
					gate.Endpoint = ep
					return gate
				}, func(cfg *Config) { cfg.SharedPoolBytes = 16 << 10 })
				vs, err := rig.nodes[0].AddServer("vm0", 0)
				if err != nil {
					t.Fatal(err)
				}
				rig.run(t, func(ctx context.Context) {
					for _, e := range entries {
						if tier == "shared" {
							err = vs.PutShared(e.id, e.payload, e.class, len(e.payload))
						} else {
							err = vs.PutRemote(ctx, e.id, e.payload, e.class, len(e.payload))
						}
						if err != nil {
							t.Fatalf("put %d: %v", e.id, err)
						}
					}
					check := func(state string, es ...entry) {
						for _, e := range es {
							want, loc, err := vs.Get(ctx, e.id)
							if err != nil {
								t.Errorf("%s: Get(%d): %v", state, e.id, err)
								continue
							}
							if !bytes.HasPrefix(want, e.payload) {
								t.Errorf("%s: Get(%d) does not start with what was put", state, e.id)
							}
							for _, room := range []int{loc.StoredSize, loc.StoredSize + 100} {
								dst := bytes.Repeat([]byte{0xEE}, room)
								n, gotLoc, err := vs.GetInto(ctx, e.id, dst)
								if err != nil || n != len(want) || !bytes.Equal(dst[:n], want) {
									t.Errorf("%s: GetInto(%d) into %d bytes = %d bytes, %v; Get returned %d", state, e.id, room, n, err, len(want))
								}
								if gotLoc.StoredSize != loc.StoredSize || gotLoc.Tier != loc.Tier {
									t.Errorf("%s: GetInto(%d) location %+v, Get's %+v", state, e.id, gotLoc, loc)
								}
								if room > n && dst[room-1] != 0xEE {
									t.Errorf("%s: GetInto(%d) wrote past the stored size", state, e.id)
								}
							}
							for _, r := range ranges {
								off, n := r[0], r[1]
								if off+n > len(want) {
									continue
								}
								dst := make([]byte, n)
								if err := vs.GetAtInto(ctx, e.id, off, dst); err != nil || !bytes.Equal(dst, want[off:off+n]) {
									t.Errorf("%s: GetAtInto(%d, %d, %d) differs from that range of Get: %v", state, e.id, off, n, err)
								}
							}
						}
					}
					check("all up", entries...)

					// Refusals cost no verb: a short buffer, a range past the entry.
					loc, _ := vs.Location(1)
					before := gate.count()
					if _, _, err := vs.GetInto(ctx, 1, make([]byte, loc.StoredSize-1)); err == nil {
						t.Error("GetInto accepted a buffer one byte short of the stored size")
					}
					if err := vs.GetAtInto(ctx, 1, loc.StoredSize-8, make([]byte, 16)); err == nil {
						t.Error("GetAtInto accepted a range past the stored size")
					}
					if _, _, err := vs.GetInto(ctx, 99, make([]byte, 4096)); !errors.Is(err, pagetable.ErrNotFound) {
						t.Errorf("GetInto of an absent entry: %v", err)
					}
					if got := gate.count(); got != before {
						t.Errorf("refused reads issued %d one-sided reads, want 0", got-before)
					}
					if tier == "shared" {
						if gate.count() != 0 {
							t.Errorf("shared-tier reads issued %d fabric reads", gate.count())
						}
						return
					}

					// An entry's first donor down: rf3 serves it from the second
					// replica, rs4.2 loses data shard 0 and decodes around it.
					owner := rig.nodes[0]
					detours := owner.replReg.Counter("read_failovers")
					if tier == "rs4.2" {
						detours = owner.ecReg.Counter("degraded_reads")
					}
					for _, e := range entries {
						loc, _ := vs.Location(e.id)
						gate.kill(transport.NodeID(loc.Primary))
						before := detours.Value()
						check(fmt.Sprintf("donor %d down", loc.Primary), e)
						if detours.Value() == before {
							t.Errorf("entry %d: no read went around its dead first donor", e.id)
						}
					}
				})
			})
		}
	}
}

// TestGetIntoCancelledLeavesDstAlone: once GetInto has returned — served or
// cancelled mid-flight — nothing writes the caller's buffer again (the
// transport.ScatterReader contract, carried up through the policy). The test
// scribbles over dst the moment the call returns and looks again later; under
// the race detector a straggling fetch that still wrote dst is a reported
// race, under -tags bufdebug a released scratch buffer written late panics.
func TestGetIntoCancelledLeavesDstAlone(t *testing.T) {
	for _, durability := range []string{"rf3", "rs4.2"} {
		t.Run(durability, func(t *testing.T) {
			rig := newShapedPutRig(t, "tcp", 8, durability, nil, func(cfg *Config) {
				cfg.SlabSize = 64 << 10
				cfg.RecvPoolBytes = 4 << 20
			})
			vs, err := rig.nodes[0].AddServer("vm0", 0)
			if err != nil {
				t.Fatal(err)
			}
			const size = 64 << 10
			data := ecPayload(size, 51)
			if err := vs.PutRemote(context.Background(), 1, data, size, size); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, size)
			mark := bytes.Repeat([]byte{0xC3}, size)
			served, cancelled := 0, 0
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				// Spread the cancellation over the life of a loopback read:
				// before it starts, while shards are in flight, after it ends.
				timer := time.AfterFunc(time.Duration(i%20)*10*time.Microsecond, cancel)
				n, _, err := vs.GetInto(ctx, 1, dst)
				switch {
				case err == nil:
					served++
					if n != size || !bytes.Equal(dst, data) {
						t.Fatalf("round %d: a served read returned wrong bytes", i)
					}
				case errors.Is(err, context.Canceled):
					cancelled++
				default:
					t.Fatalf("round %d: %v", i, err)
				}
				copy(dst, mark)
				timer.Stop()
				cancel()
				time.Sleep(200 * time.Microsecond)
				if !bytes.Equal(dst, mark) {
					t.Fatalf("round %d: dst was written after GetInto returned (err %v)", i, err)
				}
			}
			if served == 0 || cancelled == 0 {
				t.Logf("%d served, %d cancelled: the cancellation window missed one side on this host", served, cancelled)
			}
		})
	}
}
