package swap

import (
	"time"

	"godm/internal/compress"
)

// Preset constructors for every system in the paper's evaluation. Callers
// pass the resident-set size (the 50%/75% memory configuration) and, where
// relevant, the per-page compressibility function of the workload.

// DefaultWindow is FastSwap's batching window d (pages per RDMA message).
const DefaultWindow = 16

// Block-stack overheads per remote request. NBDX is a raw RDMA block
// device; Infiniswap adds its own remote-slab indirection on top of the
// same stack, which is why the paper measures it slightly behind NBDX.
const (
	NBDXOverhead       = 25 * time.Microsecond
	InfiniswapOverhead = 30 * time.Microsecond
)

// Compression codec costs (LZO-class, §IV.H's four-granularity FastSwap).
// These are what the simulator charges per page; they are in the goldens and
// do not follow the library's codec. For scale, internal/compress's LZ block
// codec measures ~2 µs to compress and ~0.1 µs to decompress a ratio-2.0
// synthetic page on the 2-CPU bench host (BenchmarkCodecPage*), and
// ~17 µs / ~3.5 µs on cold pages of real text (DESIGN.md §13) — the same
// order, where stdlib deflate, which the library ran before, was ~50 / ~15 µs
// and ~75 / ~35 µs.
const (
	DefaultCompressCPU   = 2 * time.Microsecond
	DefaultDecompressCPU = 1 * time.Microsecond
)

// FastSwap returns the full system: shared+remote tiers at the given
// distribution ratio (10 = FS-SM … 0 = FS-RDMA), 4-granularity compression,
// window batching, and proactive batch swap-in when pbs is set.
func FastSwap(resident, nodeRatio int, pbs bool, pageRatio func(int) float64) Config {
	readahead := 1
	if pbs {
		readahead = DefaultWindow
	}
	name := "FastSwap"
	if !pbs {
		name = "FastSwap-noPBS"
	}
	return Config{
		Name:          name,
		ResidentPages: resident,
		Window:        DefaultWindow,
		NodeRatio:     nodeRatio,
		RemoteEnabled: true,
		Readahead:     readahead,
		Compression:   true,
		Granularity:   compress.Four,
		PageRatio:     pageRatio,
		CompressCPU:   DefaultCompressCPU,
		DecompressCPU: DefaultDecompressCPU,
	}
}

// Leap returns FastSwap with the majority-trend stride prefetcher replacing
// the in-batch PBS readahead: every access feeds the detector, faults fetch
// the detected stride across batch boundaries, and the prefetch depth adapts
// to hit/waste feedback. addressSpace is the workload's page count.
func Leap(resident, nodeRatio, addressSpace int, pageRatio func(int) float64) Config {
	cfg := FastSwap(resident, nodeRatio, false, pageRatio)
	cfg.Name = "FastSwap-Leap"
	cfg.LeapPrefetch = true
	cfg.AddressSpace = addressSpace
	return cfg
}

// Tiered returns the Leap configuration with the adaptive tier ladder on
// top: cold batches sink shared → remote → remote-deflated, and
// re-referenced ones climb back. Swap-outs go out raw (hot data should not
// pay decompress on every fault); the ladder deflates batches only once
// they have proven cold, which is when the CPU trade pays off. The ladder
// promotes into the shared pool whatever nodeRatio says, so Deps.Shared is
// required.
func Tiered(resident, nodeRatio, addressSpace int, pageRatio func(int) float64) Config {
	cfg := Leap(resident, nodeRatio, addressSpace, pageRatio)
	cfg.Name = "FastSwap-Tiered"
	cfg.Tiering = true
	cfg.Compression = false
	return cfg
}

// Linux returns the kernel disk-swap baseline: no disaggregated memory,
// swap clustering on write-out and 8-page readahead on fault
// (vm.page-cluster=3).
func Linux(resident int) Config {
	return Config{
		Name:          "Linux",
		ResidentPages: resident,
		Window:        8,
		NodeRatio:     -1,
		RemoteEnabled: false,
		Readahead:     8,
	}
}

// Zswap returns the compressed-RAM-cache baseline: zbud's two effective
// size classes in front of the disk swap device, per-page (no batching),
// no remote memory. The pool capacity is the node's shared pool.
func Zswap(resident int, pageRatio func(int) float64) Config {
	return Config{
		Name:          "Zswap",
		ResidentPages: resident,
		Window:        1,
		NodeRatio:     10,
		RemoteEnabled: false,
		Readahead:     1,
		Compression:   true,
		Granularity:   compress.Two, // zbud: half-page or full page
		PageRatio:     pageRatio,
		CompressCPU:   DefaultCompressCPU,
		DecompressCPU: DefaultDecompressCPU,
	}
}

// Infiniswap returns the remote-paging baseline of [26]: per-page requests
// through an RDMA block device, remote memory with disk fallback, no
// compression, no node-level shared memory, no batching.
func Infiniswap(resident int) Config {
	return Config{
		Name:           "Infiniswap",
		ResidentPages:  resident,
		Window:         1,
		NodeRatio:      -1,
		RemoteEnabled:  true,
		Readahead:      1,
		RemoteOverhead: InfiniswapOverhead,
	}
}

// XMemPod returns the hierarchical hybrid-memory configuration of the
// paper's [36]: FastSwap's shared + remote tiers backed by a local flash
// tier before the spinning swap device, so even cluster-wide memory
// exhaustion degrades to ~100 µs flash accesses rather than milliseconds of
// seeking.
func XMemPod(resident, nodeRatio int, pbs bool, pageRatio func(int) float64) Config {
	cfg := FastSwap(resident, nodeRatio, pbs, pageRatio)
	cfg.Name = "XMemPod"
	cfg.SSDEnabled = true
	return cfg
}

// NBDX returns the raw RDMA block-device baseline FastSwap is built on.
func NBDX(resident int) Config {
	return Config{
		Name:           "NBDX",
		ResidentPages:  resident,
		Window:         1,
		NodeRatio:      -1,
		RemoteEnabled:  true,
		Readahead:      1,
		RemoteOverhead: NBDXOverhead,
	}
}
