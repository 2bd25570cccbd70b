package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"godm/internal/des"
	"godm/internal/kv"
	"godm/internal/memdev"
	"godm/internal/metrics"
	"godm/internal/rdd"
	"godm/internal/swap"
	"godm/internal/workload"
)

// ---------------------------------------------------------------- Figure 8

// Fig8SystemNames is the sweep order of the distribution-ratio experiment.
var Fig8SystemNames = []string{
	"FS-SM", "FS-9:1", "FS-7:3", "FS-5:5", "FS-RDMA", "Infiniswap", "NBDX", "Linux",
}

// Fig8Row is one application's throughput across systems.
type Fig8Row struct {
	Workload string
	// OpsPerSec maps system name to measured throughput.
	OpsPerSec map[string]float64
}

// Fig8Result reproduces "Varying distribution ratio of disaggregated memory
// access": Redis/Memcached/VoltDB throughput under the five FastSwap
// node:cluster ratios and the three baselines, at the 50% configuration.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 runs the sweep.
func Fig8(scale Scale) (*Fig8Result, error) {
	res := &Fig8Result{}
	for _, name := range workload.ServerNames() {
		prof, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		row := Fig8Row{Workload: name, OpsPerSec: map[string]float64{}}
		for _, sys := range Fig8SystemNames {
			ops, err := runKVThroughput(prof, sys, scale)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s on %s: %w", name, sys, err)
			}
			row.OpsPerSec[sys] = ops
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// fig8Config maps a system name to its swap configuration.
func fig8Config(sys string, resident int, ratioFn func(int) float64) (swap.Config, error) {
	switch sys {
	case "FS-SM":
		return swap.FastSwap(resident, 10, false, ratioFn), nil
	case "FS-9:1":
		return swap.FastSwap(resident, 9, false, ratioFn), nil
	case "FS-7:3":
		return swap.FastSwap(resident, 7, false, ratioFn), nil
	case "FS-5:5":
		return swap.FastSwap(resident, 5, false, ratioFn), nil
	case "FS-RDMA":
		return swap.FastSwap(resident, 0, false, ratioFn), nil
	case "Infiniswap":
		return swap.Infiniswap(resident), nil
	case "NBDX":
		return swap.NBDX(resident), nil
	case "Linux":
		return swap.Linux(resident), nil
	default:
		return swap.Config{}, fmt.Errorf("unknown system %q", sys)
	}
}

// runKVThroughput populates a server at the 50% configuration and measures
// steady-state operation throughput.
func runKVThroughput(prof workload.Profile, sys string, scale Scale) (float64, error) {
	resident := scale.Pages / 2
	ratioFn := func(pg int) float64 { return prof.PageRatio(scale.Seed, pg) }
	cfg, err := fig8Config(sys, resident, ratioFn)
	if err != nil {
		return 0, err
	}
	tb, err := NewTestbed(mlTestbedConfig(scale.Pages))
	if err != nil {
		return 0, err
	}
	deps, err := tb.SwapDeps("kv-" + prof.Name)
	if err != nil {
		return 0, err
	}
	if cfg.NodeRatio < 0 && !cfg.RemoteEnabled {
		deps.VS = nil
	}
	mgr, err := swap.NewManager(cfg, deps)
	if err != nil {
		return 0, err
	}
	srv, err := kv.NewServer(prof, mgr, scale.Pages, 100*time.Millisecond)
	if err != nil {
		return 0, err
	}
	var opsStart, opsEnd time.Duration
	_, err = tb.Run("kv", func(ctx context.Context, p *des.Proc) error {
		if err := srv.Populate(ctx, 64); err != nil {
			return err
		}
		opsStart = p.Now()
		if err := srv.RunOps(ctx, scale.KVOps, scale.Seed); err != nil {
			return err
		}
		opsEnd = p.Now()
		return nil
	})
	if err != nil {
		return 0, err
	}
	elapsed := opsEnd - opsStart
	if elapsed <= 0 {
		return 0, fmt.Errorf("no elapsed time")
	}
	return float64(scale.KVOps) / elapsed.Seconds(), nil
}

// String renders the figure.
func (r *Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: server throughput (ops/sec) across distribution ratios, 50%% config\n")
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, sys := range Fig8SystemNames {
		fmt.Fprintf(&b, " %11s", sys)
	}
	fmt.Fprintf(&b, "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s", row.Workload)
		for _, sys := range Fig8SystemNames {
			fmt.Fprintf(&b, " %11.0f", row.OpsPerSec[sys])
		}
		fmt.Fprintf(&b, "\n")
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s: FS-SM/Linux = %.0fx, FS-RDMA/Infiniswap = %.1fx, FS-RDMA/NBDX = %.1fx\n",
			row.Workload,
			row.OpsPerSec["FS-SM"]/row.OpsPerSec["Linux"],
			row.OpsPerSec["FS-RDMA"]/row.OpsPerSec["Infiniswap"],
			row.OpsPerSec["FS-RDMA"]/row.OpsPerSec["NBDX"])
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 9

// Fig9Series is one system's throughput recovery curve.
type Fig9Series struct {
	System string
	Points []metrics.Point
	// RecoverySeconds is the time until throughput first reaches 90% of the
	// curve's final plateau; -1 if never.
	RecoverySeconds float64
	// PeakFraction is the last window's throughput relative to the best
	// window (how fully the system recovered within the experiment).
	PeakFraction float64
}

// Fig9Result reproduces the Memcached ETC recovery experiment: after a cold
// restart with the heap fully paged out, FastSwap with the proactive batch
// swap-in pump recovers to peak almost immediately, FastSwap without PBS
// takes much longer, and Infiniswap is still below peak at the end of the
// measurement window.
type Fig9Result struct {
	Series []Fig9Series
}

// Fig9 runs the recovery curves.
func Fig9(scale Scale) (*Fig9Result, error) {
	res := &Fig9Result{}
	for _, sys := range []string{"FastSwap+PBS", "FastSwap-noPBS", "Infiniswap"} {
		s, err := runFig9System(sys, scale)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", sys, err)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

func runFig9System(sys string, scale Scale) (Fig9Series, error) {
	prof, err := workload.ByName("Memcached")
	if err != nil {
		return Fig9Series{}, err
	}
	// The recovery dynamics need a heap whose full restore spans many
	// throughput windows: double the standard working set and flatten the
	// key skew so most pages participate.
	pages := scale.Pages * 2
	prof.ZipfS = 1.01
	resident := pages / 2
	ratioFn := func(pg int) float64 { return prof.PageRatio(scale.Seed, pg) }
	var cfg swap.Config
	pump := false
	switch sys {
	case "FastSwap+PBS":
		cfg = swap.FastSwap(resident, 5, false, ratioFn)
		pump = true
	case "FastSwap-noPBS":
		cfg = swap.FastSwap(resident, 5, false, ratioFn)
	case "Infiniswap":
		cfg = swap.Infiniswap(resident)
	default:
		return Fig9Series{}, fmt.Errorf("unknown system %q", sys)
	}
	tb, err := NewTestbed(mlTestbedConfig(pages))
	if err != nil {
		return Fig9Series{}, err
	}
	deps, err := tb.SwapDeps("mc")
	if err != nil {
		return Fig9Series{}, err
	}
	mgr, err := swap.NewManager(cfg, deps)
	if err != nil {
		return Fig9Series{}, err
	}
	measureFor := scale.Fig9Window
	if measureFor <= 0 {
		// Auto-size: roughly 5x the fault-driven restore time of the heap.
		measureFor = time.Duration(pages) * 30 * time.Microsecond
	}
	window := measureFor / 40
	if window <= 0 {
		window = time.Millisecond
	}
	srv, err := kv.NewServer(prof, mgr, pages, window)
	if err != nil {
		return Fig9Series{}, err
	}
	done := false
	restarted := false
	if pump {
		tb.Env.Go("pbs-pump", func(p *des.Proc) {
			ctx := des.NewContext(context.Background(), p)
			for !done {
				if !restarted {
					p.Sleep(window / 4)
					continue
				}
				if mgr.ProactiveSwapIn(ctx, 256) == 0 {
					p.Sleep(window)
				}
			}
		})
	}
	var measureStart time.Duration
	_, err = tb.Run("mc", func(ctx context.Context, p *des.Proc) error {
		defer func() { done = true }()
		if err := srv.Populate(ctx, 64); err != nil {
			return err
		}
		// Warm up with live traffic so the LRU order reflects key hotness
		// (the pre-restart server was serving this workload); then page the
		// whole heap out, as after the paging storm of Figure 9.
		if err := srv.RunOps(ctx, pages*4, scale.Seed+1); err != nil {
			return err
		}
		srv.ColdRestart(ctx)
		// Throughput windows sit on absolute multiples of window, and the
		// curve keeps only whole windows past the restart: idle up to the
		// next boundary, so every system's first point covers the same
		// stretch of its recovery however long its paging storm took.
		p.Sleep(window - p.Now()%window)
		restarted = true
		measureStart = p.Now()
		_, err := srv.RunFor(ctx, measureFor, scale.Seed)
		return err
	})
	if err != nil {
		return Fig9Series{}, err
	}
	// Trim the series to the measurement window and drop the final bucket,
	// which the deadline truncates.
	var pts []metrics.Point
	for _, pt := range srv.Throughput() {
		if pt.Start >= measureStart {
			pts = append(pts, metrics.Point{Start: pt.Start - measureStart, Rate: pt.Rate})
		}
	}
	if len(pts) > 1 {
		pts = pts[:len(pts)-1]
	}
	return Fig9Series{
		System:          sys,
		Points:          pts,
		RecoverySeconds: recoveryTime(pts),
		PeakFraction:    peakFraction(pts),
	}, nil
}

// recoveryTime returns seconds until the rate first reaches 90% of the
// plateau (the mean of the final quarter of the series).
func recoveryTime(pts []metrics.Point) float64 {
	if len(pts) == 0 {
		return -1
	}
	plateau := 0.0
	tail := pts[len(pts)*3/4:]
	for _, pt := range tail {
		plateau += pt.Rate
	}
	plateau /= float64(len(tail))
	target := plateau * 0.9
	for _, pt := range pts {
		if pt.Rate >= target {
			return pt.Start.Seconds()
		}
	}
	return -1
}

// peakFraction is the final window's rate over the best window's rate.
func peakFraction(pts []metrics.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	best := 0.0
	for _, pt := range pts {
		if pt.Rate > best {
			best = pt.Rate
		}
	}
	if best == 0 {
		return 0
	}
	return pts[len(pts)-1].Rate / best
}

// String renders the curves.
func (r *Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: Memcached ETC throughput recovery after cold restart\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-16s recovery to 90%% plateau: %6.2fs  final/peak: %4.0f%%\n",
			s.System, s.RecoverySeconds, s.PeakFraction*100)
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %s:", s.System)
		for i, pt := range s.Points {
			if i%4 == 0 {
				fmt.Fprintf(&b, " %.0f", pt.Rate)
			}
		}
		fmt.Fprintf(&b, " ops/s\n")
	}
	return b.String()
}

// --------------------------------------------------------------- Figure 10

// Fig10Row is one (application, dataset size) speedup measurement.
type Fig10Row struct {
	Workload string
	Dataset  string // small / medium / large
	Vanilla  time.Duration
	DAHI     time.Duration
	Speedup  float64
}

// Fig10Result reproduces "Vanilla Spark v.s. DAHI powered Spark": iterative
// jobs over three dataset categories; small fits executor memory fully,
// medium and large cache only partially.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 runs the comparison.
func Fig10(scale Scale) (*Fig10Result, error) {
	jobs := []string{"LogisticRegression", "SVM", "KMeans", "ConnectedComponents"}
	// Executor memory in pages; dataset sizes relative to it.
	memPages := scale.Pages / 2
	datasets := []struct {
		label      string
		totalPages int
	}{
		{"small", memPages / 2},
		{"medium", memPages * 2},
		{"large", memPages * 4},
	}
	res := &Fig10Result{}
	for _, name := range jobs {
		prof, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, ds := range datasets {
			partitions := 32
			pagesPer := ds.totalPages / partitions
			if pagesPer < 1 {
				pagesPer = 1
			}
			// ML jobs iterate many times; the first pass (which must read the
			// input from stable storage either way) amortizes away.
			iters := scale.Iters * 3
			tVanilla, err := runRDDJob(rdd.ModeVanilla, prof, memPages, partitions, pagesPer, iters)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s %s vanilla: %w", name, ds.label, err)
			}
			tDAHI, err := runRDDJob(rdd.ModeDAHI, prof, memPages, partitions, pagesPer, iters)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s %s dahi: %w", name, ds.label, err)
			}
			res.Rows = append(res.Rows, Fig10Row{
				Workload: name,
				Dataset:  ds.label,
				Vanilla:  tVanilla,
				DAHI:     tDAHI,
				Speedup:  float64(tVanilla) / float64(tDAHI),
			})
		}
	}
	return res, nil
}

func runRDDJob(mode rdd.Mode, prof workload.Profile, memPages, partitions, pagesPer, iters int) (time.Duration, error) {
	totalBytes := int64(partitions*pagesPer) * rdd.PageSize
	tb, err := NewTestbed(TestbedConfig{
		NodeCount:       4,
		SharedPoolBytes: totalBytes/2 + 1<<20,
		RecvPoolBytes:   alignMiB(totalBytes + 1<<20),
	})
	if err != nil {
		return 0, err
	}
	execCfg := rdd.ExecutorConfig{
		Name:     "exec-" + prof.Name,
		Mode:     mode,
		MemPages: memPages,
		DRAM:     tb.DRAM,
		Disk:     memdev.NewDisk(tb.Env, "hdfs-"+prof.Name, tb.Params),
	}
	if mode == rdd.ModeDAHI {
		vs, err := tb.Nodes[0].AddServer("exec-"+prof.Name, 0)
		if err != nil {
			return 0, err
		}
		execCfg.VS = vs
		execCfg.SHM = tb.SHM
	}
	exec, err := rdd.NewExecutor(execCfg)
	if err != nil {
		return 0, err
	}
	return tb.Run("job", func(ctx context.Context, p *des.Proc) error {
		eng := rdd.NewEngine(exec)
		src, err := eng.TextFile(partitions, pagesPer)
		if err != nil {
			return err
		}
		// Parse and featurize before caching — the lineage vanilla Spark
		// re-executes for every partition that did not fit in memory.
		data := src.Map(prof.ComputePerPage).Map(prof.ComputePerPage).Cache()
		for i := 0; i < iters; i++ {
			if _, err := data.Map(prof.ComputePerPage).Count(ctx); err != nil {
				return err
			}
		}
		return nil
	})
}

// String renders the figure.
func (r *Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: vanilla Spark vs DAHI (iterative jobs)\n")
	fmt.Fprintf(&b, "%-22s %-8s %14s %14s %9s\n", "workload", "dataset", "vanilla", "DAHI", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %-8s %14v %14v %8.2fx\n", row.Workload, row.Dataset,
			row.Vanilla.Round(time.Microsecond), row.DAHI.Round(time.Microsecond), row.Speedup)
	}
	return b.String()
}
