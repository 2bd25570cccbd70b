package swap

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"godm/internal/des"
	"godm/internal/memdev"
	"godm/internal/metrics"
)

// leapRig builds a Leap manager on a fresh rig.
func leapRig(t *testing.T, resident, space int) (*rig, *Manager) {
	t.Helper()
	r := newRig(t, 8<<20, 8<<20)
	m, err := NewManager(Leap(resident, 5, space, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	return r, m
}

// Repeated sequential scans over a working set twice the resident size: the
// detector locks onto the +1 stride and the second pass onward should be
// largely prefetch-fed.
func TestLeapPrefetchesSequentialStride(t *testing.T) {
	const pages, resident = 512, 256
	r, m := leapRig(t, resident, pages)
	r.drive(t, m, pages, 4)
	st := m.Stats()
	if st.Prefetched == 0 {
		t.Fatal("Leap issued no prefetches on a sequential scan")
	}
	if st.PrefetchHits == 0 {
		t.Fatal("no prefetch hits on a sequential scan")
	}
	if acc := st.PrefetchAccuracy(); acc < 0.5 {
		t.Fatalf("prefetch accuracy %.2f on a pure stride, want >= 0.5 (stats %+v)", acc, st)
	}
	if cov := st.PrefetchCoverage(); cov <= 0 || cov > 1 {
		t.Fatalf("coverage %.2f outside (0,1]", cov)
	}
}

// Leap should serve a strided rescan with far fewer demand swap-ins than the
// prefetch-off engine, and never break accounting: hits+waste <= issued.
func TestLeapReducesDemandSwapIns(t *testing.T) {
	const pages, resident, iters = 512, 256, 4
	r1, leap := leapRig(t, resident, pages)
	r1.drive(t, leap, pages, iters)

	r2 := newRig(t, 8<<20, 8<<20)
	off, err := NewManager(FastSwap(resident, 5, false, flatRatio(2)), r2.deps)
	if err != nil {
		t.Fatal(err)
	}
	r2.drive(t, off, pages, iters)

	ls, os := leap.Stats(), off.Stats()
	if ls.SwapIns >= os.SwapIns {
		t.Fatalf("Leap demand swap-ins %d >= prefetch-off %d", ls.SwapIns, os.SwapIns)
	}
	if ls.PrefetchHits+ls.PrefetchWaste > ls.Prefetched {
		t.Fatalf("hits %d + waste %d > issued %d", ls.PrefetchHits, ls.PrefetchWaste, ls.Prefetched)
	}
}

// An adversarial delta cycle never forms a majority: the detector must stay
// quiet instead of polluting the resident set.
func TestLeapSilentOnAdversarialStride(t *testing.T) {
	const pages, resident = 1024, 128
	r, m := leapRig(t, resident, pages)
	deltas := []int{3, 17, 29, 41} // distinct deltas, no strict majority
	var done time.Duration
	r.env.Go("driver", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		pg := 0
		for i := 0; i < 4096; i++ {
			pg = (pg + deltas[i%len(deltas)]) % pages
			if err := m.Touch(ctx, pg, time.Microsecond, true); err != nil {
				t.Errorf("Touch: %v", err)
				return
			}
		}
		done = p.Now()
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	_ = done
	if st := m.Stats(); st.Prefetched > st.Faults/10 {
		t.Fatalf("adversarial stride still issued %d prefetches (%d faults)", st.Prefetched, st.Faults)
	}
}

// Fixed trace, fresh engines: stats transcripts must be byte-identical —
// the Leap path has no hidden nondeterminism (DES determinism contract).
func TestLeapDeterministicReplay(t *testing.T) {
	run := func() (Stats, time.Duration) {
		r := newRig(t, 8<<20, 8<<20)
		m, err := NewManager(Tiered(128, 5, 2048, flatRatio(2)), r.deps)
		if err != nil {
			t.Fatal(err)
		}
		var done time.Duration
		r.env.Go("driver", func(p *des.Proc) {
			ctx := des.NewContext(context.Background(), p)
			rng := rand.New(rand.NewSource(42))
			pg := 0
			for i := 0; i < 6000; i++ {
				switch rng.Intn(4) {
				case 0:
					pg = rng.Intn(2048)
				default:
					pg = (pg + 1) % 2048
				}
				if err := m.Touch(ctx, pg, time.Microsecond, rng.Intn(2) == 0); err != nil {
					t.Errorf("Touch: %v", err)
					return
				}
			}
			done = p.Now()
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Stats(), done
	}
	s1, d1 := run()
	s2, d2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ across replays:\n%+v\n%+v", s1, s2)
	}
	if d1 != d2 {
		t.Fatalf("completion time differs across replays: %v vs %v", d1, d2)
	}
}

// tieredRun builds a Tiered manager (resident 64 of 1024 pages) and drives
// the ladder with the production cadence: set A is written out, set B is
// hammered until A's batches have sat cold for several demoteAfter periods,
// and — when rereference is set — A is then re-read until its batches have
// taken promoteTouches demand fetches each.
func tieredRun(t *testing.T, reg *metrics.Registry, rereference bool) *Manager {
	t.Helper()
	r := newRig(t, 8<<20, 8<<20)
	deps := r.deps
	if reg != nil {
		deps.Metrics = NewMetrics(reg)
	}
	m, err := NewManager(Tiered(64, 5, 1024, flatRatio(2)), deps)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(ctx context.Context, from, iters int, write bool) {
		for it := 0; it < iters; it++ {
			for pg := from; pg < from+256; pg++ {
				if err := m.Touch(ctx, pg, 0, write); err != nil {
					t.Errorf("Touch(%d): %v", pg, err)
					return
				}
			}
		}
	}
	r.env.Go("driver", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		scan(ctx, 0, 1, true)    // set A goes out
		scan(ctx, 512, 48, true) // set B ages it cold
		if rereference {
			scan(ctx, 0, 16, false)
		}
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

// Tiering: a working set that goes cold must sink down the ladder, and the
// per-tier occupancy must always sum to the live parked population.
func TestTieringDemotesColdBatches(t *testing.T) {
	m := tieredRun(t, nil, false)
	st := m.Stats()
	if st.Demotions == 0 {
		t.Fatalf("no demotions despite a cold working set (stats %+v)", st)
	}
	occ := m.TierOccupancy()
	var sum int64
	for _, n := range occ {
		sum += n
	}
	if sum != m.ParkedPages() {
		t.Fatalf("tier occupancy sums to %d, ParkedPages says %d (%v)", sum, m.ParkedPages(), occ)
	}
	// Cross-check against ground truth: live slots across all batches.
	var live int64
	for _, b := range liveBatches(m) {
		live += int64(b.liveCount)
	}
	if sum != live {
		t.Fatalf("tier occupancy %d != live batch slots %d (%v)", sum, live, occ)
	}
	if occ["remote_deflated"] == 0 {
		t.Fatalf("cold set never reached the bottom rung: %v", occ)
	}
	if occ["disk"] != 0 {
		t.Fatalf("idleness sank pages to disk with room in the pools: %v", occ)
	}
}

// Re-referencing a demoted batch enough times climbs it back up the ladder.
func TestTieringPromotesOnReReference(t *testing.T) {
	st := tieredRun(t, nil, true).Stats()
	if st.Demotions == 0 || st.Promotions == 0 {
		t.Fatalf("ladder never moved both ways: %+v", st)
	}
}

// The per-tier gauges must flow into the digest plane exactly as the
// engine's own occupancy accounting reports them — this is the end-to-end
// observability assertion of the tier ladder (dmctl top reads the same
// digests).
func TestTierGaugesReachDigestPlane(t *testing.T) {
	reg := metrics.NewRegistry("swap")
	m := tieredRun(t, reg, false)
	d := metrics.DigestRegistries(map[string]*metrics.Registry{"swap": reg})
	var sum int64
	for name, occ := range m.TierOccupancy() {
		got, ok := d.Gauges["swap/tier_"+name+"_pages"]
		if !ok {
			t.Fatalf("gauge swap/tier_%s_pages missing from digest (gauges %v)", name, d.Gauges)
		}
		if got != occ {
			t.Fatalf("digest gauge tier_%s_pages = %d, engine occupancy %d", name, got, occ)
		}
		sum += got
	}
	if sum != m.ParkedPages() {
		t.Fatalf("digest tier gauges sum to %d, parked population is %d", sum, m.ParkedPages())
	}
	if d.Counters["swap/tier_demotions"] == 0 {
		t.Fatal("tier_demotions counter missing or zero in digest")
	}
}

// Tiering promotes into the shared pool and demotes into remote memory even
// when NodeRatio sends no swap-out traffic to the shared tier, so a manager
// missing either must be refused at construction, not panic at the first
// promotion.
func TestTieringRefusedWithoutItsRungs(t *testing.T) {
	r := newRig(t, 8<<20, 8<<20)
	noShared := r.deps
	noShared.Shared = nil
	if _, err := NewManager(Tiered(64, 0, 1024, flatRatio(2)), noShared); err == nil {
		t.Error("Tiering without a SharedMem device constructed")
	}
	cfg := Tiered(64, 10, 1024, flatRatio(2))
	cfg.RemoteEnabled = false
	if _, err := NewManager(cfg, r.deps); err == nil {
		t.Error("Tiering without the remote tier constructed")
	}
}

// Every swap registry counter must equal its Stats field whichever path did
// the counting: PBS read-ahead, Leap prefetch and the ladder, and — on both —
// the proactive pump after a cold restart.
func TestRegistryCountersMatchStats(t *testing.T) {
	for _, cfg := range []Config{
		FastSwap(64, 5, true, flatRatio(2)),
		Tiered(64, 5, 512, flatRatio(2)),
	} {
		r := newRig(t, 8<<20, 8<<20)
		reg := metrics.NewRegistry("swap")
		deps := r.deps
		deps.Metrics = NewMetrics(reg)
		m, err := NewManager(cfg, deps)
		if err != nil {
			t.Fatal(err)
		}
		pumped := 0
		r.env.Go("driver", func(p *des.Proc) {
			ctx := des.NewContext(context.Background(), p)
			scan := func(iters int) {
				for i := 0; i < iters*512; i++ {
					if err := m.Touch(ctx, i%512, 0, i%3 == 0); err != nil {
						t.Errorf("%s: Touch(%d): %v", cfg.Name, i%512, err)
						return
					}
				}
			}
			scan(12)
			m.EvictAll(ctx)
			pumped = m.ProactiveSwapIn(ctx, 48)
			scan(2)
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if pumped == 0 || st.Prefetched <= int64(pumped) || st.PrefetchHits == 0 {
			t.Fatalf("%s: pump restored %d of %d prefetched pages, %d hits: a path went unexercised",
				cfg.Name, pumped, st.Prefetched, st.PrefetchHits)
		}
		if cfg.Tiering && (st.Demotions == 0 || st.Promotions == 0) {
			t.Fatalf("%s: ladder never moved both ways: %+v", cfg.Name, st)
		}
		for name, want := range map[string]int64{
			"accesses":        st.Accesses,
			"hits":            st.Hits,
			"faults":          st.Faults,
			"swap_ins":        st.SwapIns,
			"swap_outs":       st.SwapOuts,
			"prefetched":      st.Prefetched,
			"prefetch_hits":   st.PrefetchHits,
			"prefetch_wasted": st.PrefetchWaste,
			"tier_demotions":  st.Demotions,
			"tier_promotions": st.Promotions,
		} {
			if got := reg.Counter(name).Value(); got != want {
				t.Errorf("%s: registry counter %s = %d, Stats says %d", cfg.Name, name, got, want)
			}
		}
	}
}

// BenchmarkPrefetchLeapScan measures the detector-driven fault path over a
// DRAM+disk engine, keeping cluster setup out of the measurement.
func BenchmarkPrefetchLeapScan(b *testing.B) {
	params := memdev.DefaultParams()
	for i := 0; i < b.N; i++ {
		env := des.NewEnv()
		cfg := Config{
			Name:          "bench-leap",
			ResidentPages: 256,
			Window:        16,
			NodeRatio:     -1,
			Readahead:     1,
			LeapPrefetch:  true,
			AddressSpace:  2048,
		}
		m, err := NewManager(cfg, Deps{DRAM: memdev.NewDRAM(params), Disk: memdev.NewDisk(env, "d", params)})
		if err != nil {
			b.Fatal(err)
		}
		env.Go("driver", func(p *des.Proc) {
			ctx := des.NewContext(context.Background(), p)
			for it := 0; it < 3; it++ {
				for pg := 0; pg < 2048; pg++ {
					if err := m.Touch(ctx, pg, 0, true); err != nil {
						b.Errorf("Touch: %v", err)
						return
					}
				}
			}
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
