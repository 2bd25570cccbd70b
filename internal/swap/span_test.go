package swap

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"godm/internal/core"
	"godm/internal/des"
	"godm/internal/memdev"
	"godm/internal/transport"
	"godm/internal/workload"
)

// fabricRead is one one-sided read as the fabric saw it: the bytes it moved
// and the class of the donor's block they came out of.
type fabricRead struct{ n, class int }

// readLog sits on the owner's endpoint and records every one-sided read — what
// a remote pool read comes down to, one each on the rig's single-copy policy.
type readLog struct {
	transport.Endpoint
	donors []*core.Node // by node id - 1
	reads  []fabricRead
}

func (l *readLog) note(to transport.NodeID, offset int64, n int) {
	h, _ := l.donors[to-1].RecvPool().HandleAt(offset)
	l.reads = append(l.reads, fabricRead{n: n, class: h.Class})
}

func (l *readLog) ReadRegion(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, n int) ([]byte, error) {
	l.note(to, offset, n)
	return l.Endpoint.ReadRegion(ctx, to, region, offset, n)
}

func (l *readLog) ReadRegionInto(ctx context.Context, to transport.NodeID, region transport.RegionID, offset int64, dst []byte) error {
	l.note(to, offset, len(dst))
	return transport.ReadRegionInto(ctx, l.Endpoint, to, region, offset, dst)
}

// newLoggedRig is newRig with a readLog on the owner's endpoint.
func newLoggedRig(t *testing.T, sharedBytes, recvBytes int64) (*rig, *readLog) {
	t.Helper()
	log := &readLog{}
	r := newWrappedRig(t, sharedBytes, recvBytes, func(ep transport.Endpoint) transport.Endpoint {
		log.Endpoint = ep
		return log
	})
	log.donors = r.nodes
	return r, log
}

// TestReadMovesTheSpan: a pool read is one request for the bytes from the
// first slot asked for to the last — not the entry, not its class.
func TestReadMovesTheSpan(t *testing.T) {
	t.Run("one request of hi-lo bytes", func(t *testing.T) {
		r, log := newLoggedRig(t, 1<<20, 16<<20)
		const resident, window = 16, 8
		m, err := NewManager(Config{
			Name:          "remote-only",
			ResidentPages: resident,
			Window:        window,
			NodeRatio:     0,
			RemoteEnabled: true,
			Readahead:     3,
		}, r.deps)
		if err != nil {
			t.Fatal(err)
		}
		r.env.Go("driver", func(p *des.Proc) {
			ctx := des.NewContext(context.Background(), p)
			for pg := 0; pg < resident+2*window; pg++ { // pages 0-7 and 8-15 go out as two batches
				if err := m.Touch(ctx, pg, time.Microsecond, true); err != nil {
					t.Errorf("Touch(%d): %v", pg, err)
					return
				}
			}
			b := m.pages[0].ref.b
			if len(b.slots) != window || b.where != tierRemote || b.total != window*PageSize {
				t.Errorf("page 0 is parked in %+v, want a full window in remote memory", b)
				return
			}
			// A fault with read-ahead: slots 0-2 of 8, one request, three pages —
			// the whole entry would be eight.
			log.reads = log.reads[:0]
			if err := m.Touch(ctx, 0, time.Microsecond, false); err != nil {
				t.Errorf("Touch(0): %v", err)
				return
			}
			if len(log.reads) != 1 || log.reads[0].n != 3*PageSize {
				t.Errorf("a fault reading 3 slots of %d moved %+v, want one read of %d bytes", window, log.reads, 3*PageSize)
			}
			for _, tc := range []struct {
				slots       []int
				moved, asks int
			}{
				{[]int{4}, PageSize, PageSize},            // one slot: what it always moved
				{[]int{5, 7}, 3 * PageSize, 2 * PageSize}, // the hole between rides along
				{[]int{7, 3}, 5 * PageSize, 2 * PageSize}, // Leap's groups come unordered
			} {
				log.reads = log.reads[:0]
				in := m.stats.BytesIn
				if err := m.readSlots(ctx, p, b, tc.slots); err != nil {
					t.Errorf("readSlots(%v): %v", tc.slots, err)
					return
				}
				if len(log.reads) != 1 || log.reads[0].n != tc.moved || m.stats.BytesIn-in != int64(tc.asks) {
					t.Errorf("readSlots(%v) moved %+v and counted %d bytes in, want one read of %d bytes and %d counted",
						tc.slots, log.reads, m.stats.BytesIn-in, tc.moved, tc.asks)
				}
			}
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
	})

	// Under every preset, whatever slots of whatever batch a read asks for: a
	// pool tier sees one request, a device tier none; the span covers what was
	// asked and stays inside the payload.
	t.Run("every preset", func(t *testing.T) {
		// Four pools of 1 MiB under 4096 pages: the parked set overflows them, so
		// the device tiers fill too.
		const space, resident, steps = 4096, 80, 2 * 4096
		ratio := flatRatio(2)
		for _, cfg := range []Config{
			FastSwap(resident, 9, true, ratio),
			Leap(resident, 5, space, ratio),
			Tiered(resident, 5, space, ratio),
			Linux(resident),
			Zswap(resident, ratio),
			Infiniswap(resident),
			XMemPod(resident, 9, true, ratio),
			NBDX(resident),
		} {
			t.Run(cfg.Name, func(t *testing.T) {
				r, log := newLoggedRig(t, 1<<20, 1<<20)
				deps := r.deps
				deps.SSD = memdev.NewSSD(r.env, "flash", memdev.DefaultParams())
				m, err := NewManager(cfg, deps)
				if err != nil {
					t.Fatal(err)
				}
				r.env.Go("driver", func(p *des.Proc) {
					ctx := des.NewContext(context.Background(), p)
					rng := rand.New(rand.NewSource(23))
					pg, stride := 0, 1
					for step := 0; step < steps; step++ {
						if rng.Intn(10) == 0 {
							pg, stride = rng.Intn(space), []int{1, 1, 2, -1}[rng.Intn(4)]
						}
						pg = ((pg+stride)%space + space) % space
						if err := m.Touch(ctx, pg, time.Microsecond, rng.Intn(3) == 0); err != nil {
							t.Errorf("step %d: Touch(%d): %v", step, pg, err)
							return
						}
					}
					var tiers [tierCount]int
					for _, b := range liveBatches(m) {
						var live []int
						for s, sl := range b.slots {
							if sl.live {
								live = append(live, s)
							}
						}
						rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
						for _, slots := range [][]int{live[:1], live[:(len(live)+1)/2], live} {
							asked, lo, hi := 0, b.total, 0
							for _, s := range slots {
								sl := b.slots[s]
								asked += sl.size
								lo, hi = min(lo, sl.off), max(hi, sl.off+sl.size)
							}
							log.reads = log.reads[:0]
							shared, in := r.nodes[0].Stats().SharedGets, m.stats.BytesIn
							if err := m.readSlots(ctx, p, b, slots); err != nil {
								t.Errorf("batch %d on %s: readSlots(%v): %v", b.id, tierNames[b.where], slots, err)
								return
							}
							shared = r.nodes[0].Stats().SharedGets - shared
							wantShared, wantRemote := int64(0), 0
							switch b.where {
							case tierShared:
								wantShared = 1
							case tierRemote, tierRemoteZ:
								wantRemote = 1
							}
							if shared != wantShared || len(log.reads) != wantRemote {
								t.Errorf("batch %d on %s: reading slots %v made %d shared-pool and %d fabric requests, want %d and %d",
									b.id, tierNames[b.where], slots, shared, len(log.reads), wantShared, wantRemote)
							}
							if wantRemote == 1 && len(log.reads) == 1 && log.reads[0].n != hi-lo {
								t.Errorf("batch %d on %s: reading slots %v moved %d bytes, their span is %d", b.id, tierNames[b.where], slots, log.reads[0].n, hi-lo)
							}
							if hi-lo < asked || hi > b.total || m.stats.BytesIn-in != int64(asked) {
								t.Errorf("batch %d on %s: slots %v span [%d,%d) of %d, %d bytes asked, %d counted in",
									b.id, tierNames[b.where], slots, lo, hi, b.total, asked, m.stats.BytesIn-in)
							}
						}
						tiers[b.where]++
					}
					pools := tiers[tierShared] + tiers[tierRemote] + tiers[tierRemoteZ]
					if usesPools := cfg.NodeRatio > 0 || cfg.RemoteEnabled; (usesPools && pools == 0) || tiers[m.overflowTier()] == 0 {
						t.Errorf("the run left a tier it should have filled empty: batches per tier %v", tiers)
					}
				})
				if err := r.env.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	})

	// BenchmarkSwapTouch's configuration — the Tiered manager, the phase-changing
	// trace, half the working set resident, every slot a whole page. The engine
	// used to fetch the entry for every request of more than one slot; against
	// the entries as the donors hold them — each block's class — the spans that
	// go over the fabric now are under 0.35. (A batch the ladder re-laid fills
	// less than its class, and the old read stopped where the payload did; reads
	// of the shared pool never reach the fabric and are not in the sum.)
	t.Run("bench configuration", func(t *testing.T) {
		const pages = 2048
		pool := int64(4*pages) * PageSize
		r, log := newLoggedRig(t, pool, pool)
		m, err := NewManager(Tiered(pages/2, 0, pages, func(int) float64 { return 0.5 }), r.deps)
		if err != nil {
			t.Fatal(err)
		}
		r.env.Go("driver", func(p *des.Proc) {
			ctx := des.NewContext(context.Background(), p)
			trace := workload.NewShapeTrace("phase-changing", pages, 128*pages, 1)
			for a, ok := trace.Next(); ok; a, ok = trace.Next() {
				if err := m.Touch(ctx, a.Page, a.Compute, a.Write); err != nil {
					t.Errorf("Touch(%d): %v", a.Page, err)
					return
				}
			}
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		var multi, spans, entries int64
		for _, rd := range log.reads {
			if rd.n > PageSize {
				multi++
				spans += int64(rd.n)
				entries += int64(rd.class)
			}
		}
		t.Logf("%d fabric reads, %d of more than one slot: %d bytes as spans, %d as whole entries (%.2fx)",
			len(log.reads), multi, spans, entries, float64(spans)/float64(entries))
		if multi < 1000 || float64(spans) > 0.35*float64(entries) {
			t.Errorf("%d multi-slot reads moved %d bytes, %.2f of the %d their entries hold; want at least 1000 reads and at most 0.35",
				multi, spans, float64(spans)/float64(entries), entries)
		}
	})
}
