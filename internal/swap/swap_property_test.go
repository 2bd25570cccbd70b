package swap

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"godm/internal/des"
)

// TestEngineMatchesModelProperty drives random access traces through every
// system preset and checks the engine against a trivially correct model:
//   - every access returns without error,
//   - page accounting is conserved (resident + staged + swapped covers every
//     page ever touched, with no page in two places),
//   - hits + faults == accesses,
//   - the page table, its LRU and the batch list are consistent (checkRecord).
func TestEngineMatchesModelProperty(t *testing.T) {
	type systemCase struct {
		name string
		cfg  func(resident int) Config
	}
	flat := func(int) float64 { return 2.5 }
	systems := []systemCase{
		{"fastswap", func(r int) Config { return FastSwap(r, 9, true, flat) }},
		{"fastswap-rdma", func(r int) Config { return FastSwap(r, 0, false, flat) }},
		{"linux", Linux},
		{"zswap", func(r int) Config { return Zswap(r, flat) }},
		{"infiniswap", Infiniswap},
	}
	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			f := func(seed int64, opsRaw []uint16) bool {
				if len(opsRaw) == 0 {
					return true
				}
				r := newRig(t, 16<<20, 16<<20)
				deps := r.deps
				cfg := sys.cfg(8)
				if cfg.NodeRatio < 0 && !cfg.RemoteEnabled {
					deps = Deps{DRAM: r.deps.DRAM, Disk: r.deps.Disk}
				}
				m, err := NewManager(cfg, deps)
				if err != nil {
					t.Logf("NewManager: %v", err)
					return false
				}
				rng := rand.New(rand.NewSource(seed))
				ok := true
				touched := map[int]bool{}
				r.env.Go("driver", func(p *des.Proc) {
					ctx := des.NewContext(context.Background(), p)
					for _, op := range opsRaw {
						page := int(op) % 64
						write := rng.Intn(2) == 0
						if err := m.Touch(ctx, page, time.Microsecond, write); err != nil {
							t.Logf("Touch(%d): %v", page, err)
							ok = false
							return
						}
						touched[page] = true
					}
				})
				if err := r.env.Run(); err != nil {
					t.Logf("Run: %v", err)
					return false
				}
				if !ok {
					return false
				}
				st := m.Stats()
				if st.Hits+st.Faults != st.Accesses {
					t.Logf("hits %d + faults %d != accesses %d", st.Hits, st.Faults, st.Accesses)
					return false
				}
				if st.Accesses != int64(len(opsRaw)) {
					return false
				}
				// Every touched page is findable somewhere (resident,
				// staged, or swapped); none is double-resident.
				for pg := range touched {
					if rec := m.pages[pg]; !rec.resident && rec.staged == noPage && !rec.parked {
						t.Logf("page %d lost", pg)
						return false
					}
				}
				if err := checkRecord(m); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLadderProperty drives a long seeded mix of scans, jumps, hot-set
// re-reads and writes through the Tiered preset and checks the ladder's
// bookkeeping right after every sweep: the per-tier occupancy, ParkedPages
// and the live slots recounted from the batches agree (checkRecord, with the
// rest of the record's invariants), and nothing sits on disk while the pools
// have room (the rig's hold the whole address space
// many times over). Afterwards every parked page must fault back in, and a
// second run of the same seed must be identical.
func TestLadderProperty(t *testing.T) {
	const space, resident, accesses = 2048, 96, 30000
	type outcome struct {
		stats Stats
		occ   map[string]int64
		done  time.Duration
	}
	run := func(seed int64) outcome {
		r := newRig(t, 64<<20, 64<<20)
		m, err := NewManager(Tiered(resident, 5, space, flatRatio(2)), r.deps)
		if err != nil {
			t.Fatal(err)
		}
		check := func(at int) bool {
			occ := m.TierOccupancy()
			var sum int64
			for _, n := range occ {
				sum += n
			}
			if err := checkRecord(m); err != nil {
				t.Errorf("access %d: %v", at, err)
				return false
			}
			if sum != m.ParkedPages() {
				t.Errorf("access %d: occupancy sums to %d, ParkedPages %d (%v)", at, sum, m.ParkedPages(), occ)
				return false
			}
			if occ["disk"] != 0 || occ["ssd"] != 0 {
				t.Errorf("access %d: pages on an overflow tier with room in the pools: %v", at, occ)
				return false
			}
			return true
		}
		var out outcome
		r.env.Go("driver", func(p *des.Proc) {
			ctx := des.NewContext(context.Background(), p)
			rng := rand.New(rand.NewSource(seed))
			pg, sweeps := 0, 0
			for i := 0; i < accesses; i++ {
				switch rng.Intn(8) {
				case 0:
					pg = rng.Intn(space) // jump
				case 1:
					pg = rng.Intn(128) // hot set, re-read from every rung
				default:
					pg = (pg + 1) % space
				}
				if err := m.Touch(ctx, pg, time.Microsecond, rng.Intn(3) == 0); err != nil {
					t.Errorf("access %d: Touch(%d): %v", i, pg, err)
					return
				}
				if m.stats.Faults > 0 && m.sweepTick == 0 && m.stats.Faults/demoteEvery > int64(sweeps) {
					sweeps++
					if !check(i) {
						return
					}
				}
			}
			if sweeps < 20 {
				t.Errorf("only %d sweeps in %d accesses", sweeps, accesses)
			}
			out = outcome{stats: m.Stats(), occ: m.TierOccupancy(), done: p.Now()}
			// Every parked page faults back in from whatever rung holds it.
			for _, pg := range parkedPages(m) {
				if err := m.Touch(ctx, pg, 0, false); err != nil {
					t.Errorf("parked page %d did not fault back: %v", pg, err)
					return
				}
			}
			check(accesses)
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(7), run(7)
	if t.Failed() {
		return
	}
	if a.stats.Demotions == 0 || a.stats.Promotions == 0 {
		t.Fatalf("ladder never moved both ways: %+v", a.stats)
	}
	if a.occ["shared"] == 0 || a.occ["remote"] == 0 || a.occ["remote_deflated"] == 0 {
		t.Fatalf("trace left a rung empty: %v", a.occ)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of one seed differ:\n%+v\n%+v", a, b)
	}
}

func TestProactiveSwapInRestoresNewestFirst(t *testing.T) {
	r := newRig(t, 32<<20, 32<<20)
	m, err := NewManager(FastSwap(64, 10, false, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.env.Go("driver", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		// Touch 64 pages (fills resident), then evict everything.
		for pg := 0; pg < 64; pg++ {
			if err := m.Touch(ctx, pg, 0, true); err != nil {
				t.Errorf("Touch: %v", err)
				return
			}
		}
		m.EvictAll(ctx)
		if m.lruLen != 0 {
			t.Errorf("resident = %d after EvictAll", m.lruLen)
			return
		}
		restored := m.ProactiveSwapIn(ctx, 16)
		if restored != 16 {
			t.Errorf("restored = %d, want 16", restored)
			return
		}
		// The newest batch holds the most recently evicted (MRU) pages:
		// 48..63. All 16 restored pages must come from that range.
		for pg := 48; pg < 64; pg++ {
			if !m.pages[pg].resident {
				t.Errorf("hot page %d not restored", pg)
			}
		}
		// Restored pages are clean: touching them is a hit, and evicting
		// them again costs nothing.
		before := m.Stats().Faults
		if err := m.Touch(ctx, 50, 0, false); err != nil {
			t.Errorf("Touch restored: %v", err)
			return
		}
		if m.Stats().Faults != before {
			t.Error("restored page faulted")
		}
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProactiveSwapInStopsWhenResidentFull(t *testing.T) {
	r := newRig(t, 32<<20, 32<<20)
	m, err := NewManager(FastSwap(8, 10, false, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.env.Go("driver", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		for pg := 0; pg < 32; pg++ {
			if err := m.Touch(ctx, pg, 0, true); err != nil {
				t.Errorf("Touch: %v", err)
				return
			}
		}
		// Resident set is full (8 pages): the pump must refuse to evict for
		// the sake of prefetch.
		if n := m.ProactiveSwapIn(ctx, 100); n != 0 {
			t.Errorf("pump restored %d into a full resident set", n)
		}
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMessageSplitCost(t *testing.T) {
	cfg := FastSwap(8, 0, false, flatRatio(2))
	cfg.MaxMessageBytes = 8 << 10
	cfg.MessageOverhead = 3 * time.Microsecond
	r := newRig(t, 16<<20, 16<<20)
	m, err := NewManager(cfg, r.deps)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		bytes int
		want  time.Duration
	}{
		{0, 0},
		{8 << 10, 0},                     // one message
		{16 << 10, 3 * time.Microsecond}, // two messages: one extra
		{64 << 10, 21 * time.Microsecond},
	}
	for _, tt := range tests {
		if got := m.splitCost(tt.bytes); got != tt.want {
			t.Errorf("splitCost(%d) = %v, want %v", tt.bytes, got, tt.want)
		}
	}
	// Unlimited messages never split.
	cfg.MaxMessageBytes = 0
	r2 := newRig(t, 16<<20, 16<<20)
	m2, err := NewManager(cfg, r2.deps)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.splitCost(1 << 30); got != 0 {
		t.Errorf("unlimited splitCost = %v, want 0", got)
	}
}
