package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"godm/internal/compress"
	"godm/internal/swap"
	"godm/internal/workload"
)

// ---------------------------------------------------------------- Figure 3

// Fig3Row is one workload's compression ratios under the three systems.
type Fig3Row struct {
	Workload string
	FourGran float64 // FastSwap, 4 size classes
	TwoGran  float64 // FastSwap, 2 size classes
	Zswap    float64 // zbud allocator
}

// Fig3Result reproduces "Compression Ratio for 10 ML Workloads in FastSwap".
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 compresses profile-shaped synthetic pages with the real codec (the LZ
// block codec of internal/compress) under both granularities and the zbud
// model.
func Fig3(scale Scale) (*Fig3Result, error) {
	c4, err := compress.NewCodec(compress.Four)
	if err != nil {
		return nil, err
	}
	c2, err := compress.NewCodec(compress.Two)
	if err != nil {
		return nil, err
	}
	const pagesPerWorkload = 128
	res := &Fig3Result{}
	for _, prof := range workload.Catalog() {
		rng := rand.New(rand.NewSource(scale.Seed))
		var raw, s4, s2, sz int64
		for i := 0; i < pagesPerWorkload; i++ {
			ratio := prof.PageRatio(scale.Seed, i)
			page := compress.GeneratePage(rng, ratio)
			p4, err := c4.Compress(page)
			if err != nil {
				return nil, err
			}
			p2, err := c2.Compress(page)
			if err != nil {
				return nil, err
			}
			raw += compress.PageSize
			s4 += int64(p4.StoredSize)
			s2 += int64(p2.StoredSize)
			// Zswap stores the same compressed payload in zbud slots.
			sz += int64(compress.ZbudStoredSize(len(p4.Data)))
		}
		res.Rows = append(res.Rows, Fig3Row{
			Workload: prof.Name,
			FourGran: compress.Ratio(raw, s4),
			TwoGran:  compress.Ratio(raw, s2),
			Zswap:    compress.Ratio(raw, sz),
		})
	}
	return res, nil
}

// String renders the figure as a table.
func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: compression ratio per workload (higher is better)\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s\n", "workload", "FS-4gran", "FS-2gran", "Zswap")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %10.2f %10.2f %10.2f\n", row.Workload, row.FourGran, row.TwoGran, row.Zswap)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 4

// Fig4Row is one compressibility point.
type Fig4Row struct {
	Ratio      float64
	RemoteTime time.Duration // swap to remote memory (Fig 4a)
	DiskTime   time.Duration // swap to disk (Fig 4b)
}

// Fig4Result reproduces "Effect of compression ratio on remote memory and
// local disk": logistic regression at the 50% configuration, sweeping the
// page compressibility.
type Fig4Result struct {
	Rows []Fig4Row
}

// Fig4 runs the sweep.
func Fig4(scale Scale) (*Fig4Result, error) {
	prof, err := workload.ByName("LogisticRegression")
	if err != nil {
		return nil, err
	}
	resident := scale.Pages / 2
	// Remote memory is scarce (half the raw working set): compressibility
	// decides how much of the overflow stays off disk — the capacity effect
	// compression buys in disaggregated memory.
	recvBytes := int64(scale.Pages) * swap.PageSize / 4
	const fig4Slab = 128 << 10 // fine-grained slabs: capacity, not classing, decides
	recvBytes = (recvBytes + fig4Slab - 1) / fig4Slab * fig4Slab
	remoteTB := TestbedConfig{
		NodeCount:       4,
		SharedPoolBytes: 1 << 20,
		RecvPoolBytes:   recvBytes,
		SlabSize:        fig4Slab,
	}
	res := &Fig4Result{}
	for _, ratio := range []float64{1.3, 2, 3, 4} {
		ratio := ratio
		flat := func(int) float64 { return ratio }

		remoteCfg := swap.FastSwap(resident, 0, true, flat) // FS-RDMA
		remoteTime, _, err := runMLCompletion(prof, remoteCfg, remoteTB, scale.Pages, scale.Iters, scale.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig4 remote ratio %v: %w", ratio, err)
		}

		// Disk variant: compression + batching, but the backing tier is the
		// swap disk (no disaggregated memory).
		diskCfg := swap.FastSwap(resident, 0, true, flat)
		diskCfg.Name = "FastSwap-disk"
		diskCfg.RemoteEnabled = false
		diskCfg.NodeRatio = -1
		diskTime, _, err := runMLCompletion(prof, diskCfg, mlTestbedConfig(scale.Pages), scale.Pages, scale.Iters, scale.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig4 disk ratio %v: %w", ratio, err)
		}
		res.Rows = append(res.Rows, Fig4Row{Ratio: ratio, RemoteTime: remoteTime, DiskTime: diskTime})
	}
	return res, nil
}

// String renders the figure.
func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: LR completion time vs page compressibility (50%% config)\n")
	fmt.Fprintf(&b, "%-8s %16s %16s\n", "ratio", "(a) remote", "(b) disk")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8.1f %16v %16v\n", row.Ratio, row.RemoteTime.Round(time.Microsecond), row.DiskTime.Round(time.Millisecond))
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 5

// Fig5Row is one workload's completion with compression on and off.
type Fig5Row struct {
	Workload    string
	Compressed  time.Duration
	Plain       time.Duration
	Improvement float64 // Plain/Compressed
}

// Fig5Result reproduces "Disaggregated memory compression on application
// performance".
type Fig5Result struct {
	Rows []Fig5Row
}

// Fig5 compares compression on/off for the five ML workloads on the hybrid
// FastSwap at the 50% configuration, with pools sized so that compression
// determines how much of the working set stays in the fast tiers.
func Fig5(scale Scale) (*Fig5Result, error) {
	resident := scale.Pages / 2
	// Pools hold half the raw overflow: with ~2-3x compression everything
	// fits in fast tiers; without it, half spills to disk. Fine-grained
	// slabs keep allocator classing out of the comparison.
	const fig5Slab = 128 << 10
	bytes := int64(scale.Pages) * swap.PageSize / 4
	bytes = (bytes + fig5Slab - 1) / fig5Slab * fig5Slab
	tbCfg := TestbedConfig{NodeCount: 4, SharedPoolBytes: bytes, RecvPoolBytes: bytes, SlabSize: fig5Slab}
	res := &Fig5Result{}
	for _, name := range workload.MLNames() {
		prof, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		ratioFn := func(pg int) float64 { return prof.PageRatio(scale.Seed, pg) }
		on := swap.FastSwap(resident, 9, true, ratioFn)
		tOn, _, err := runMLCompletion(prof, on, tbCfg, scale.Pages, scale.Iters, scale.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s compressed: %w", name, err)
		}
		off := swap.FastSwap(resident, 9, true, nil)
		off.Compression = false
		off.Name = "FastSwap-nocomp"
		tOff, _, err := runMLCompletion(prof, off, tbCfg, scale.Pages, scale.Iters, scale.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s plain: %w", name, err)
		}
		res.Rows = append(res.Rows, Fig5Row{
			Workload:    name,
			Compressed:  tOn,
			Plain:       tOff,
			Improvement: float64(tOff) / float64(tOn),
		})
	}
	return res, nil
}

// String renders the figure.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: effect of page compression (FastSwap hybrid, 50%% config)\n")
	fmt.Fprintf(&b, "%-22s %14s %14s %10s\n", "workload", "compressed", "plain", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %14v %14v %9.2fx\n", row.Workload,
			row.Compressed.Round(time.Microsecond), row.Plain.Round(time.Microsecond), row.Improvement)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Fig6Row is one working-set size.
type Fig6Row struct {
	WorkloadPages int
	FastSwapPBS   time.Duration
	FastSwapNoPBS time.Duration
	Infiniswap    time.Duration
	Linux         time.Duration
}

// Fig6Result reproduces the batch swap-in comparison across four workload
// sizes.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 runs a sequential-scan job at four working-set sizes against a fixed
// resident set.
func Fig6(scale Scale) (*Fig6Result, error) {
	prof, err := workload.ByName("KMeans")
	if err != nil {
		return nil, err
	}
	resident := scale.Pages / 2
	res := &Fig6Result{}
	for _, mult := range []int{1, 2, 3, 4} {
		pages := scale.Pages * mult / 2
		if pages <= resident {
			pages = resident + resident/2
		}
		ratioFn := func(pg int) float64 { return prof.PageRatio(scale.Seed, pg) }
		row := Fig6Row{WorkloadPages: pages}
		// Figure 6 exercises cluster-level disaggregated memory, where batch
		// swap-in amortizes the per-message cost (FS-RDMA configuration).
		systems := []struct {
			cfg  swap.Config
			dest *time.Duration
		}{
			{swap.FastSwap(resident, 0, true, ratioFn), &row.FastSwapPBS},
			{swap.FastSwap(resident, 0, false, ratioFn), &row.FastSwapNoPBS},
			{swap.Infiniswap(resident), &row.Infiniswap},
			{swap.Linux(resident), &row.Linux},
		}
		for _, sys := range systems {
			t, _, err := runMLCompletion(prof, sys.cfg, mlTestbedConfig(pages), pages, scale.Iters, scale.Seed)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s at %d pages: %w", sys.cfg.Name, pages, err)
			}
			*sys.dest = t
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the figure.
func (r *Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: completion time vs workload size (proactive batch swap-in)\n")
	fmt.Fprintf(&b, "%-10s %14s %16s %14s %14s\n", "pages", "FastSwap+PBS", "FastSwap-noPBS", "Infiniswap", "Linux")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10d %14v %16v %14v %14v\n", row.WorkloadPages,
			row.FastSwapPBS.Round(time.Microsecond), row.FastSwapNoPBS.Round(time.Microsecond),
			row.Infiniswap.Round(time.Microsecond), row.Linux.Round(time.Millisecond))
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 7

// Fig7Row is one (workload, configuration) measurement.
type Fig7Row struct {
	Workload   string
	Config     string // "75%" or "50%"
	FastSwap   time.Duration
	Infiniswap time.Duration
	Linux      time.Duration
}

// Fig7Result reproduces the machine-learning workloads comparison, including
// the paper's headline speedups (24x/45x average over Linux, 2.3x/2.6x over
// Infiniswap at 75%/50%).
type Fig7Result struct {
	Rows []Fig7Row
	// Aggregates per configuration.
	AvgOverLinux      map[string]float64
	MaxOverLinux      map[string]float64
	AvgOverInfiniswap map[string]float64
}

// Fig7 runs the five ML workloads under both memory configurations.
func Fig7(scale Scale) (*Fig7Result, error) {
	res := &Fig7Result{
		AvgOverLinux:      map[string]float64{},
		MaxOverLinux:      map[string]float64{},
		AvgOverInfiniswap: map[string]float64{},
	}
	configs := []struct {
		label    string
		resident func(pages int) int
	}{
		{"75%", func(p int) int { return p * 3 / 4 }},
		{"50%", func(p int) int { return p / 2 }},
	}
	for _, cfg := range configs {
		var sumLx, maxLx, sumIS float64
		for _, name := range workload.MLNames() {
			prof, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			resident := cfg.resident(scale.Pages)
			ratioFn := func(pg int) float64 { return prof.PageRatio(scale.Seed, pg) }
			row := Fig7Row{Workload: name, Config: cfg.label}
			systems := []struct {
				c    swap.Config
				dest *time.Duration
			}{
				{swap.FastSwap(resident, 9, true, ratioFn), &row.FastSwap},
				{swap.Infiniswap(resident), &row.Infiniswap},
				{swap.Linux(resident), &row.Linux},
			}
			for _, sys := range systems {
				t, _, err := runMLCompletion(prof, sys.c, mlTestbedConfig(scale.Pages), scale.Pages, scale.Iters, scale.Seed)
				if err != nil {
					return nil, fmt.Errorf("fig7 %s %s %s: %w", name, cfg.label, sys.c.Name, err)
				}
				*sys.dest = t
			}
			res.Rows = append(res.Rows, row)
			lx := float64(row.Linux) / float64(row.FastSwap)
			is := float64(row.Infiniswap) / float64(row.FastSwap)
			sumLx += lx
			sumIS += is
			if lx > maxLx {
				maxLx = lx
			}
		}
		n := float64(len(workload.MLNames()))
		res.AvgOverLinux[cfg.label] = sumLx / n
		res.MaxOverLinux[cfg.label] = maxLx
		res.AvgOverInfiniswap[cfg.label] = sumIS / n
	}
	return res, nil
}

// String renders the figure.
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: ML workload completion time\n")
	fmt.Fprintf(&b, "%-22s %-6s %14s %14s %14s\n", "workload", "config", "FastSwap", "Infiniswap", "Linux")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %-6s %14v %14v %14v\n", row.Workload, row.Config,
			row.FastSwap.Round(time.Microsecond), row.Infiniswap.Round(time.Microsecond),
			row.Linux.Round(time.Millisecond))
	}
	for _, cfg := range []string{"75%", "50%"} {
		fmt.Fprintf(&b, "config %s: FastSwap over Linux avg %.1fx (max %.1fx), over Infiniswap avg %.1fx\n",
			cfg, r.AvgOverLinux[cfg], r.MaxOverLinux[cfg], r.AvgOverInfiniswap[cfg])
	}
	return b.String()
}
