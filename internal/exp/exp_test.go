package exp

import (
	"strings"
	"testing"
)

// tinyScale keeps the full registry run fast in CI.
func tinyScale() Scale {
	return Scale{
		Pages:      512,
		Iters:      2,
		KVOps:      4000,
		Fig9Window: 0, // auto-sized
		Seed:       1,
	}
}

func TestRegistryRunsEveryExperiment(t *testing.T) {
	scale := tinyScale()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(scale)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := res.String()
			if len(out) < 20 {
				t.Fatalf("%s: suspiciously short output %q", e.ID, out)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := Fig3(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 workloads", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.FourGran < row.TwoGran {
			t.Errorf("%s: 4-granularity %.2f worse than 2-granularity %.2f",
				row.Workload, row.FourGran, row.TwoGran)
		}
		if row.TwoGran < row.Zswap {
			t.Errorf("%s: 2-granularity %.2f worse than Zswap %.2f",
				row.Workload, row.TwoGran, row.Zswap)
		}
		if row.Zswap > 2.01 {
			t.Errorf("%s: zswap ratio %.2f exceeds zbud cap of 2", row.Workload, row.Zswap)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 ratios", len(res.Rows))
	}
	// Completion time improves (or holds) as compressibility rises, on both
	// backings, and disk never beats remote.
	for i, row := range res.Rows {
		if row.DiskTime < row.RemoteTime {
			t.Errorf("ratio %.1f: disk %v faster than remote %v", row.Ratio, row.DiskTime, row.RemoteTime)
		}
		if i > 0 && row.RemoteTime > res.Rows[i-1].RemoteTime*11/10 {
			t.Errorf("remote time rose with compressibility: %v -> %v",
				res.Rows[i-1].RemoteTime, row.RemoteTime)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.DiskTime >= first.DiskTime {
		t.Errorf("disk completion did not improve with compressibility: %v -> %v",
			first.DiskTime, last.DiskTime)
	}
	// At high compressibility the working set fits remote memory entirely,
	// opening a wide gap to the disk backing.
	if last.DiskTime < 10*last.RemoteTime {
		t.Errorf("ratio 4: disk %v not >=10x remote %v", last.DiskTime, last.RemoteTime)
	}
	// The capacity effect: ratio 4 is much faster than ratio 1.3 on remote.
	if first.RemoteTime < 2*last.RemoteTime {
		t.Errorf("remote knee too weak: %v -> %v", first.RemoteTime, last.RemoteTime)
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 5 workloads x 2 configs", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !(row.FastSwap < row.Infiniswap && row.Infiniswap < row.Linux) {
			t.Errorf("%s %s: ordering violated FS=%v IS=%v LX=%v",
				row.Workload, row.Config, row.FastSwap, row.Infiniswap, row.Linux)
		}
	}
	// Headline shape: tens-of-x over Linux, few-x over Infiniswap, and the
	// 50% configuration hurts Linux more than it hurts FastSwap.
	if res.AvgOverLinux["50%"] < 10 {
		t.Errorf("avg speedup over Linux at 50%% = %.1f, want >= 10", res.AvgOverLinux["50%"])
	}
	if res.AvgOverInfiniswap["50%"] < 1.5 {
		t.Errorf("avg speedup over Infiniswap at 50%% = %.1f, want >= 1.5", res.AvgOverInfiniswap["50%"])
	}
	if res.AvgOverLinux["50%"] <= res.AvgOverLinux["75%"] {
		t.Errorf("50%% config speedup %.1f not above 75%% config %.1f",
			res.AvgOverLinux["50%"], res.AvgOverLinux["75%"])
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 server workloads", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Throughput decreases as remote share grows (FS-SM >= ... >= FS-RDMA).
		order := []string{"FS-SM", "FS-9:1", "FS-7:3", "FS-5:5", "FS-RDMA"}
		for i := 1; i < len(order); i++ {
			if row.OpsPerSec[order[i]] > row.OpsPerSec[order[i-1]]*1.15 {
				t.Errorf("%s: %s (%f) much faster than %s (%f)", row.Workload,
					order[i], row.OpsPerSec[order[i]], order[i-1], row.OpsPerSec[order[i-1]])
			}
		}
		if row.OpsPerSec["FS-SM"] < 20*row.OpsPerSec["Linux"] {
			t.Errorf("%s: FS-SM/Linux = %.1fx, want >= 20x", row.Workload,
				row.OpsPerSec["FS-SM"]/row.OpsPerSec["Linux"])
		}
		if row.OpsPerSec["FS-RDMA"] < row.OpsPerSec["Infiniswap"] {
			t.Errorf("%s: FS-RDMA below Infiniswap", row.Workload)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(res.Series))
	}
	byName := map[string]Fig9Series{}
	for _, s := range res.Series {
		byName[s.System] = s
		if len(s.Points) == 0 {
			t.Fatalf("%s: empty curve", s.System)
		}
	}
	pbs, noPBS := byName["FastSwap+PBS"], byName["FastSwap-noPBS"]
	is := byName["Infiniswap"]
	// Immediately after the restart, PBS serves faster than fault-driven
	// paging, which in turn beats the block-device baseline.
	pbsEarly, noPBSEarly, isEarly := earlyRate(pbs), earlyRate(noPBS), earlyRate(is)
	if pbsEarly < noPBSEarly*1.05 {
		t.Errorf("PBS early rate %.0f not above no-PBS %.0f", pbsEarly, noPBSEarly)
	}
	if noPBSEarly <= isEarly {
		t.Errorf("no-PBS early rate %.0f not above Infiniswap %.0f", noPBSEarly, isEarly)
	}
	// Recovery-time ordering: PBS <= no-PBS <= Infiniswap.
	if pbs.RecoverySeconds > noPBS.RecoverySeconds {
		t.Errorf("PBS recovery %vs slower than no-PBS %vs", pbs.RecoverySeconds, noPBS.RecoverySeconds)
	}
	if noPBS.RecoverySeconds > is.RecoverySeconds {
		t.Errorf("no-PBS recovery %vs slower than Infiniswap %vs", noPBS.RecoverySeconds, is.RecoverySeconds)
	}
	// Infiniswap has not fully recovered by the end of the window (the
	// paper's "only recovers to 60% of its best performance").
	if is.PeakFraction > 0.8 {
		t.Errorf("Infiniswap final/peak = %.2f, want < 0.8", is.PeakFraction)
	}
	for _, s := range []Fig9Series{pbs, noPBS} {
		if s.PeakFraction < 0.8 {
			t.Errorf("%s final/peak = %.2f, want >= 0.8 (recovered)", s.System, s.PeakFraction)
		}
	}
}

// earlyRate averages the first tenth of a recovery curve.
func earlyRate(s Fig9Series) float64 {
	n := len(s.Points) / 10
	if n == 0 {
		n = 1
	}
	var total float64
	for _, pt := range s.Points[:n] {
		total += pt.Rate
	}
	return total / float64(n)
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 4 jobs x 3 datasets", len(res.Rows))
	}
	bySize := map[string][]Fig10Row{}
	for _, row := range res.Rows {
		bySize[row.Dataset] = append(bySize[row.Dataset], row)
	}
	for _, row := range bySize["small"] {
		if row.Speedup < 0.95 || row.Speedup > 1.05 {
			t.Errorf("%s small: speedup %.2f, want ~1 (fully cached)", row.Workload, row.Speedup)
		}
	}
	for _, size := range []string{"medium", "large"} {
		for _, row := range bySize[size] {
			if row.Speedup < 1.2 {
				t.Errorf("%s %s: speedup %.2f, want >= 1.2", row.Workload, size, row.Speedup)
			}
		}
	}
	// Larger datasets widen the gap (the paper's medium -> large trend).
	avg := func(rows []Fig10Row) float64 {
		var s float64
		for _, r := range rows {
			s += r.Speedup
		}
		return s / float64(len(rows))
	}
	if avg(bySize["large"]) <= avg(bySize["medium"]) {
		t.Errorf("large avg speedup %.2f not above medium %.2f",
			avg(bySize["large"]), avg(bySize["medium"]))
	}
}

func TestMapScaleMatchesPaperNumbers(t *testing.T) {
	res := MapScale()
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// 2 TB at 4 KB/8 B -> 4 GiB (the paper rounds to "5 GB").
	if got := res.Rows[0].FlatBytes; got != 4<<30 {
		t.Fatalf("2TB flat = %d, want 4 GiB", got)
	}
	if got := res.Rows[1].FlatBytes; got != 20<<30 {
		t.Fatalf("10TB flat = %d, want 20 GiB", got)
	}
	// Grouping by 8 on 32 nodes divides by 4.
	if got := res.Rows[1].GroupedBytes[8]; got != 5<<30 {
		t.Fatalf("10TB group=8 = %d, want 5 GiB", got)
	}
}

func TestBalanceShape(t *testing.T) {
	res := Balance(tinyScale())
	byName := map[string]float64{}
	for _, row := range res.Rows {
		byName[row.Policy] = row.Imbalance
		if row.Imbalance < 1 {
			t.Errorf("%s: imbalance %.3f below 1", row.Policy, row.Imbalance)
		}
	}
	if byName["round-robin"] > 1.01 {
		t.Errorf("round-robin imbalance %.3f, want ~1.0", byName["round-robin"])
	}
	if byName["power-of-two"] >= byName["random"] {
		t.Errorf("power-of-two %.3f not better than random %.3f",
			byName["power-of-two"], byName["random"])
	}
}

func TestFailoverShape(t *testing.T) {
	res, err := Failover(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.ElectionTicks <= 0 || res.ElectionTicks > 5 {
		t.Errorf("election ticks = %d, want 1-5", res.ElectionTicks)
	}
	if !res.SurvivedPartition {
		t.Error("replicated read did not survive primary partition")
	}
	if !res.Repaired {
		t.Error("replication factor not repaired after eviction")
	}
}

func TestAblationWindowShape(t *testing.T) {
	res, err := AblationWindow(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Batching should beat per-page messaging.
	if res.Rows[2].Completion >= res.Rows[0].Completion {
		t.Errorf("d=16 (%v) not faster than d=1 (%v)",
			res.Rows[2].Completion, res.Rows[0].Completion)
	}
}

func TestAblationReplicationShape(t *testing.T) {
	res, err := AblationReplication(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r1, r3 := res.Rows[0], res.Rows[1]
	if r3.Completion <= r1.Completion {
		t.Errorf("factor 3 (%v) not slower than factor 1 (%v)", r3.Completion, r1.Completion)
	}
	if r1.SurvivesPartition {
		t.Error("factor 1 should not survive primary partition")
	}
	if !r3.SurvivesPartition {
		t.Error("factor 3 should survive primary partition")
	}
}

func TestRenderingsMentionKeyTerms(t *testing.T) {
	scale := tinyScale()
	f3, err := Fig3(scale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f3.String(), "Zswap") {
		t.Error("fig3 rendering missing Zswap column")
	}
	ms := MapScale()
	if !strings.Contains(ms.String(), "flat map") {
		t.Error("mapscale rendering missing flat map column")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 sizes", len(res.Rows))
	}
	for _, row := range res.Rows {
		// System ordering at every size: FastSwap (either) < Infiniswap < Linux.
		if row.FastSwapPBS >= row.Infiniswap || row.FastSwapNoPBS >= row.Infiniswap {
			t.Errorf("pages=%d: FastSwap not ahead of Infiniswap (%v/%v vs %v)",
				row.WorkloadPages, row.FastSwapPBS, row.FastSwapNoPBS, row.Infiniswap)
		}
		if row.Infiniswap >= row.Linux {
			t.Errorf("pages=%d: Infiniswap %v not ahead of Linux %v",
				row.WorkloadPages, row.Infiniswap, row.Linux)
		}
	}
	// Batch swap-in pays off at the largest size (small sizes may tie).
	last := res.Rows[len(res.Rows)-1]
	if last.FastSwapPBS > last.FastSwapNoPBS {
		t.Errorf("largest size: PBS %v slower than no-PBS %v", last.FastSwapPBS, last.FastSwapNoPBS)
	}
	// Completion grows with workload size for every system.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Linux <= res.Rows[i-1].Linux {
			t.Errorf("Linux completion not monotone: %v -> %v", res.Rows[i-1].Linux, res.Rows[i].Linux)
		}
	}
}

func TestAblationMessageSizeShape(t *testing.T) {
	res, err := AblationMessageSize(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Larger fabric messages amortize per-message cost: completion must not
	// degrade as m grows, and 1 MB must beat 4 KB.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Completion > res.Rows[i-1].Completion*105/100 {
			t.Errorf("m=%d (%v) slower than m=%d (%v)",
				res.Rows[i].MessageBytes, res.Rows[i].Completion,
				res.Rows[i-1].MessageBytes, res.Rows[i-1].Completion)
		}
	}
	if res.Rows[3].Completion >= res.Rows[0].Completion {
		t.Errorf("1MB messages (%v) not faster than 4KB (%v)",
			res.Rows[3].Completion, res.Rows[0].Completion)
	}
}

func TestTiersLadderOrdering(t *testing.T) {
	res, err := Tiers()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 tiers", len(res.Rows))
	}
	// The §VI premise: each tier is strictly slower than the previous.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Latency <= res.Rows[i-1].Latency {
			t.Errorf("%s (%v) not slower than %s (%v)",
				res.Rows[i].Tier, res.Rows[i].Latency,
				res.Rows[i-1].Tier, res.Rows[i-1].Latency)
		}
	}
	// And the disk-network gap the paper's whole argument rests on: remote
	// memory is >=100x faster than a random disk access.
	remote, seek := res.Rows[2].Latency, res.Rows[5].Latency
	if seek < 100*remote {
		t.Errorf("disk %v not >=100x remote %v", seek, remote)
	}
}

func TestXMemPodShape(t *testing.T) {
	res, err := XMemPod(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// With ample fast tiers the flash tier is idle: identical times.
	if res.Rows[0].Speedup < 0.99 || res.Rows[0].Speedup > 1.01 {
		t.Errorf("100%% pools: speedup %.2f, want ~1", res.Rows[0].Speedup)
	}
	// Tighter fast tiers make the flash tier matter more (allow small
	// wobble between adjacent points).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Speedup < res.Rows[i-1].Speedup*0.9 {
			t.Errorf("speedup regressed: %.2f -> %.2f",
				res.Rows[i-1].Speedup, res.Rows[i].Speedup)
		}
	}
	if last := res.Rows[len(res.Rows)-1]; last.Speedup < 2 {
		t.Errorf("exhausted-pool speedup %.2f, want >= 2", last.Speedup)
	}
}

func TestMultiTenantShape(t *testing.T) {
	res, err := MultiTenant(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// The headline: idle-neighbour memory turns a thrashing tenant around
	// by an order of magnitude or more.
	if res.LinuxAlone < 10*res.SharedAlone {
		t.Errorf("disaggregation gain %v -> %v below 10x", res.LinuxAlone, res.SharedAlone)
	}
	if res.IdleMemoryUsed == 0 {
		t.Error("no donated memory borrowed")
	}
	// A second pressured tenant interferes only mildly (both are
	// compute-bound at shared-memory speed) and never helps.
	ratio := float64(res.SharedContended) / float64(res.SharedAlone)
	if ratio < 0.99 || ratio > 1.5 {
		t.Errorf("interference ratio %.2f outside [1, 1.5]", ratio)
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 ML workloads", len(res.Rows))
	}
	atLeastOneBig := false
	for _, row := range res.Rows {
		// Compression never hurts by more than noise.
		if row.Improvement < 0.9 {
			t.Errorf("%s: compression made things worse (%.2fx)", row.Workload, row.Improvement)
		}
		if row.Improvement >= 1.3 {
			atLeastOneBig = true
		}
	}
	if !atLeastOneBig {
		t.Error("no workload gained >= 1.3x from compression")
	}
}
