package swap

import (
	"context"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/core"
	"godm/internal/des"
	"godm/internal/memdev"
	"godm/internal/simnet"
	"godm/internal/transport"
)

// rig is a single-VM testbed: one simulation, four nodes (so remote puts
// have three peers), devices, and a manager factory.
type rig struct {
	env   *des.Env
	nodes []*core.Node
	deps  Deps
}

func newRig(t *testing.T, sharedBytes, recvBytes int64) *rig {
	t.Helper()
	return newWrappedRig(t, sharedBytes, recvBytes, nil)
}

// newWrappedRig is newRig with the owner's endpoint (node 1, where the
// virtual server lives) passed through wrap first.
func newWrappedRig(t *testing.T, sharedBytes, recvBytes int64, wrap func(transport.Endpoint) transport.Endpoint) *rig {
	t.Helper()
	env := des.NewEnv()
	fabric := simnet.New(env, simnet.DefaultParams())
	dir, err := cluster.NewDirectory(cluster.Config{GroupSize: 8, HeartbeatTimeout: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{env: env}
	for i := 1; i <= 4; i++ {
		var ep transport.Endpoint
		ep, err := fabric.Attach(transport.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && wrap != nil {
			ep = wrap(ep)
		}
		node, err := core.NewNode(core.Config{
			ID:                transport.NodeID(i),
			SharedPoolBytes:   sharedBytes,
			SendPoolBytes:     1 << 20,
			RecvPoolBytes:     recvBytes,
			SlabSize:          1 << 20,
			ReplicationFactor: 1,
			// Run the swap engine against sharded host pools so the paging
			// path is covered with the production lock layout.
			PoolShards: 4,
		}, ep, dir)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, node)
	}
	vs, err := r.nodes[0].AddServer("vm0", sharedBytes)
	if err != nil {
		t.Fatal(err)
	}
	params := memdev.DefaultParams()
	r.deps = Deps{
		VS:     vs,
		DRAM:   memdev.NewDRAM(params),
		Shared: memdev.NewSharedMem(params),
		Disk:   memdev.NewDisk(env, "swapdev", params),
	}
	return r
}

// drive runs a sequential scan trace through the manager and returns the
// simulated completion time.
func (r *rig) drive(t *testing.T, m *Manager, pages, iters int) time.Duration {
	t.Helper()
	var done time.Duration
	r.env.Go("driver", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		for it := 0; it < iters; it++ {
			for pg := 0; pg < pages; pg++ {
				if err := m.Touch(ctx, pg, time.Microsecond, true); err != nil {
					t.Errorf("Touch(%d): %v", pg, err)
					return
				}
			}
		}
		done = p.Now()
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

func flatRatio(float64) func(int) float64 {
	return func(int) float64 { return 2 }
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", ResidentPages: 0, Window: 1, Readahead: 1},
		{Name: "b", ResidentPages: 1, Window: 0, Readahead: 1},
		{Name: "c", ResidentPages: 1, Window: 1, Readahead: 0},
		{Name: "d", ResidentPages: 1, Window: 1, Readahead: 1, NodeRatio: 11},
		{Name: "e", ResidentPages: 1, Window: 1, Readahead: 1, Compression: true},
	}
	for _, cfg := range bad {
		if _, err := NewManager(cfg, Deps{}); err == nil {
			t.Errorf("config %q: expected error", cfg.Name)
		}
	}
}

func TestDepsValidation(t *testing.T) {
	cfg := Linux(10)
	if _, err := NewManager(cfg, Deps{}); err == nil {
		t.Fatal("expected error for missing devices")
	}
	params := memdev.DefaultParams()
	env := des.NewEnv()
	deps := Deps{DRAM: memdev.NewDRAM(params), Disk: memdev.NewDisk(env, "d", params)}
	if _, err := NewManager(cfg, deps); err != nil {
		t.Fatalf("Linux needs only DRAM+Disk: %v", err)
	}
	// Remote without VS rejected.
	if _, err := NewManager(Infiniswap(10), deps); err == nil {
		t.Fatal("expected error for remote tier without VS")
	}
}

func TestHitsStayInDRAM(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	m, err := NewManager(Linux(64), Deps{DRAM: r.deps.DRAM, Disk: r.deps.Disk})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := r.drive(t, m, 32, 4) // working set fits: all hits after cold fills
	st := m.Stats()
	if st.ColdFills != 32 {
		t.Fatalf("ColdFills = %d, want 32", st.ColdFills)
	}
	if st.SwapOuts != 0 || st.SwapIns != 0 {
		t.Fatalf("unexpected swap traffic: %+v", st)
	}
	if st.Hits != 32*3 {
		t.Fatalf("Hits = %d, want 96", st.Hits)
	}
	// 128 touches at ~1.3µs each: well under a millisecond.
	if elapsed > time.Millisecond {
		t.Fatalf("elapsed = %v, want < 1ms", elapsed)
	}
}

func TestLinuxThrashesOnDisk(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	m, err := NewManager(Linux(16), Deps{DRAM: r.deps.DRAM, Disk: r.deps.Disk})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := r.drive(t, m, 32, 3) // 50% fits
	st := m.Stats()
	if st.DiskOuts == 0 || st.DiskIns == 0 {
		t.Fatalf("expected disk traffic: %+v", st)
	}
	// Sequential scan beyond resident set: every batch read seeks, even
	// with kernel readahead coalescing most page faults.
	if st.Faults < 35 {
		t.Fatalf("Faults = %d, want heavy faulting", st.Faults)
	}
	if elapsed < 10*time.Millisecond {
		t.Fatalf("elapsed = %v, want disk-dominated time", elapsed)
	}
}

func TestFastSwapSMUsesSharedMemoryOnly(t *testing.T) {
	r := newRig(t, 8<<20, 1<<20)
	m, err := NewManager(FastSwap(16, 10, true, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := r.drive(t, m, 32, 3)
	st := m.Stats()
	if st.SharedOuts == 0 {
		t.Fatalf("no shared traffic: %+v", st)
	}
	if st.RemoteOuts != 0 || st.DiskOuts != 0 {
		t.Fatalf("FS-SM leaked to other tiers: %+v", st)
	}
	if elapsed > 5*time.Millisecond {
		t.Fatalf("elapsed = %v, want microsecond-class swapping", elapsed)
	}
}

func TestFastSwapRDMAUsesRemoteOnly(t *testing.T) {
	r := newRig(t, 8<<20, 8<<20)
	m, err := NewManager(FastSwap(16, 0, true, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(t, m, 32, 3)
	st := m.Stats()
	if st.RemoteOuts == 0 {
		t.Fatalf("no remote traffic: %+v", st)
	}
	if st.SharedOuts != 0 {
		t.Fatalf("FS-RDMA used shared pool: %+v", st)
	}
}

func TestDistributionRatioSplitsTraffic(t *testing.T) {
	r := newRig(t, 32<<20, 32<<20)
	m, err := NewManager(FastSwap(16, 7, false, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(t, m, 64, 4)
	st := m.Stats()
	if st.SharedOuts == 0 || st.RemoteOuts == 0 {
		t.Fatalf("FS-7:3 should use both tiers: %+v", st)
	}
	frac := float64(st.SharedOuts) / float64(st.SharedOuts+st.RemoteOuts)
	if frac < 0.5 || frac > 0.9 {
		t.Fatalf("shared fraction = %v, want ~0.7", frac)
	}
}

func TestSharedFullOverflowsToRemote(t *testing.T) {
	// Shared pool fits one slab (1 MiB); heavy swapping overflows remote.
	r := newRig(t, 1<<20, 32<<20)
	m, err := NewManager(FastSwap(16, 10, false, flatRatio(1)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(t, m, 1024, 2)
	st := m.Stats()
	if st.SharedOuts == 0 {
		t.Fatalf("no shared traffic: %+v", st)
	}
	if st.RemoteOuts == 0 {
		t.Fatalf("shared-full did not overflow to remote: %+v", st)
	}
	if st.DiskOuts != 0 {
		t.Fatalf("leaked to disk with remote available: %+v", st)
	}
}

func TestEverythingFullFallsToDisk(t *testing.T) {
	// 1 MiB shared + 1 MiB recv per node, no compression: 2K pages overflow.
	r := newRig(t, 1<<20, 1<<20)
	m, err := NewManager(FastSwap(16, 10, false, flatRatio(1)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(t, m, 2048, 2)
	if st := m.Stats(); st.DiskOuts == 0 {
		t.Fatalf("expected disk fallback: %+v", st)
	}
}

func TestPBSPrefetchesBatch(t *testing.T) {
	r := newRig(t, 8<<20, 8<<20)
	pbs, err := NewManager(FastSwap(16, 10, true, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(t, pbs, 48, 3)
	st := pbs.Stats()
	if st.Prefetched == 0 {
		t.Fatalf("PBS prefetched nothing: %+v", st)
	}
	// Prefetch satisfies later touches: swap-ins far fewer than faults on
	// swapped pages.
	if st.SwapIns*2 > st.Faults {
		t.Fatalf("SwapIns = %d vs Faults = %d: prefetch ineffective", st.SwapIns, st.Faults)
	}
}

func TestPBSBeatsNoPBSOnSequentialScan(t *testing.T) {
	mkRig := func() (*rig, Deps) {
		r := newRig(t, 32<<20, 32<<20)
		return r, r.deps
	}
	r1, d1 := mkRig()
	withPBS, err := NewManager(FastSwap(64, 0, true, flatRatio(2)), d1)
	if err != nil {
		t.Fatal(err)
	}
	tPBS := r1.drive(t, withPBS, 256, 3)
	r2, d2 := mkRig()
	noPBS, err := NewManager(FastSwap(64, 0, false, flatRatio(2)), d2)
	if err != nil {
		t.Fatal(err)
	}
	tNo := r2.drive(t, noPBS, 256, 3)
	if tPBS >= tNo {
		t.Fatalf("PBS %v not faster than no-PBS %v", tPBS, tNo)
	}
}

func TestCompressionReducesBytesOut(t *testing.T) {
	r1 := newRig(t, 32<<20, 32<<20)
	comp, err := NewManager(FastSwap(16, 10, false, flatRatio(4)), r1.deps)
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := FastSwap(16, 10, false, nil)
	cfgOff.Compression = false
	cfgOff.Name = "FastSwap-nocomp"
	r2 := newRig(t, 32<<20, 32<<20)
	plain, err := NewManager(cfgOff, r2.deps)
	if err != nil {
		t.Fatal(err)
	}
	r1.drive(t, comp, 128, 2)
	r2.drive(t, plain, 128, 2)
	cs, ps := comp.Stats(), plain.Stats()
	if cs.RawOut != ps.RawOut {
		t.Fatalf("raw bytes differ: %d vs %d", cs.RawOut, ps.RawOut)
	}
	if cs.BytesOut*2 > ps.BytesOut {
		t.Fatalf("compression saved too little: %d vs %d", cs.BytesOut, ps.BytesOut)
	}
}

func TestInfiniswapSlowerThanFastSwapRemote(t *testing.T) {
	r1 := newRig(t, 32<<20, 32<<20)
	fs, err := NewManager(FastSwap(64, 0, true, flatRatio(2)), r1.deps)
	if err != nil {
		t.Fatal(err)
	}
	tFS := r1.drive(t, fs, 256, 3)
	r2 := newRig(t, 32<<20, 32<<20)
	is, err := NewManager(Infiniswap(64), r2.deps)
	if err != nil {
		t.Fatal(err)
	}
	tIS := r2.drive(t, is, 256, 3)
	if tFS >= tIS {
		t.Fatalf("FastSwap %v not faster than Infiniswap %v", tFS, tIS)
	}
}

func TestSystemOrderingMatchesPaper(t *testing.T) {
	// Figure 7's ordering at 50% config: FastSwap < Infiniswap < Linux.
	const pages, iters, resident = 256, 2, 128
	run := func(cfg Config) time.Duration {
		r := newRig(t, 32<<20, 32<<20)
		deps := r.deps
		if cfg.NodeRatio < 0 && !cfg.RemoteEnabled {
			deps = Deps{DRAM: r.deps.DRAM, Disk: r.deps.Disk}
		}
		m, err := NewManager(cfg, deps)
		if err != nil {
			t.Fatal(err)
		}
		return r.drive(t, m, pages, iters)
	}
	tFS := run(FastSwap(resident, 10, true, flatRatio(2)))
	tIS := run(Infiniswap(resident))
	tLX := run(Linux(resident))
	if !(tFS < tIS && tIS < tLX) {
		t.Fatalf("ordering violated: FastSwap=%v Infiniswap=%v Linux=%v", tFS, tIS, tLX)
	}
	// Linux should be at least an order of magnitude behind FastSwap.
	if tLX < 10*tFS {
		t.Fatalf("Linux %v not >= 10x FastSwap %v", tLX, tFS)
	}
}

func TestTouchPendingPageCancelsSwapOut(t *testing.T) {
	r := newRig(t, 8<<20, 8<<20)
	m, err := NewManager(FastSwap(4, 10, false, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.env.Go("driver", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		// Fill resident set, overflow two pages into the window, touch one
		// of them again before the window flushes.
		for pg := 0; pg < 6; pg++ {
			if err := m.Touch(ctx, pg, 0, true); err != nil {
				t.Errorf("Touch: %v", err)
				return
			}
		}
		// Pages 0 and 1 are staged. Touching 0 must not be a fault.
		before := m.Stats().Faults
		if err := m.Touch(ctx, 0, 0, true); err != nil {
			t.Errorf("Touch staged: %v", err)
			return
		}
		if m.Stats().Faults != before {
			t.Error("touch of staged page counted as fault")
		}
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushForcesWindowOut(t *testing.T) {
	r := newRig(t, 8<<20, 8<<20)
	m, err := NewManager(FastSwap(4, 10, false, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.env.Go("driver", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		for pg := 0; pg < 6; pg++ {
			if err := m.Touch(ctx, pg, 0, true); err != nil {
				t.Errorf("Touch: %v", err)
				return
			}
		}
		if m.Stats().SharedOuts != 0 {
			t.Error("window flushed early")
		}
		m.Flush(ctx)
		if m.Stats().SharedOuts == 0 {
			t.Error("Flush did not write the window")
		}
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteReleasesOldSlot(t *testing.T) {
	r := newRig(t, 8<<20, 8<<20)
	m, err := NewManager(FastSwap(2, 10, false, flatRatio(2)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	// Thrash 4 pages through a 2-page resident set repeatedly; batches must
	// be garbage collected as their slots die.
	r.drive(t, m, 4, 20)
	if got := len(liveBatches(m)); got > 4 {
		t.Fatalf("%d live batches, want old batches released", got)
	}
	// All pages accounted: resident + pending + swapped = 4.
	total := m.ResidentLen() + len(parkedPages(m))
	if total != 4 {
		t.Fatalf("page accounting = %d, want 4", total)
	}
}

func TestZswapStoresCompressedInShared(t *testing.T) {
	r := newRig(t, 4<<20, 1<<20)
	m, err := NewManager(Zswap(16, flatRatio(3)), r.deps)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(t, m, 64, 2)
	st := m.Stats()
	if st.SharedOuts == 0 {
		t.Fatalf("zswap wrote nothing to pool: %+v", st)
	}
	if st.RemoteOuts != 0 {
		t.Fatalf("zswap used remote memory: %+v", st)
	}
	// zbud: ratio-3 pages store at half a page.
	if st.BytesOut >= st.RawOut {
		t.Fatalf("no compression benefit: %+v", st)
	}
}

func TestXMemPodUsesSSDBeforeDisk(t *testing.T) {
	// Tiny shared + remote pools: overflow lands on the SSD tier rather
	// than the spinning swap device.
	r := newRig(t, 1<<20, 1<<20)
	deps := r.deps
	deps.SSD = memdev.NewSSD(r.env, "flash", memdev.DefaultParams())
	m, err := NewManager(XMemPod(16, 10, false, flatRatio(1)), deps)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(t, m, 2048, 2)
	st := m.Stats()
	if st.SSDOuts == 0 || st.SSDIns == 0 {
		t.Fatalf("no SSD traffic: %+v", st)
	}
	if st.DiskOuts != 0 {
		t.Fatalf("XMemPod spilled to disk: %+v", st)
	}
}

func TestXMemPodNeedsSSDDevice(t *testing.T) {
	r := newRig(t, 1<<20, 1<<20)
	if _, err := NewManager(XMemPod(16, 10, false, flatRatio(1)), r.deps); err == nil {
		t.Fatal("expected error without SSD device")
	}
}

func TestXMemPodBeatsFastSwapUnderMemoryExhaustion(t *testing.T) {
	run := func(ssd bool) time.Duration {
		r := newRig(t, 1<<20, 1<<20) // pools far too small for the job
		deps := r.deps
		cfg := FastSwap(64, 10, false, flatRatio(1))
		if ssd {
			deps.SSD = memdev.NewSSD(r.env, "flash", memdev.DefaultParams())
			cfg = XMemPod(64, 10, false, flatRatio(1))
		}
		m, err := NewManager(cfg, deps)
		if err != nil {
			t.Fatal(err)
		}
		return r.drive(t, m, 2048, 2)
	}
	withSSD := run(true)
	withoutSSD := run(false)
	if withSSD >= withoutSSD {
		t.Fatalf("XMemPod %v not faster than disk-backed FastSwap %v", withSSD, withoutSSD)
	}
}
