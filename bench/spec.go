package main

// metricSpec names one metric of the benchmark contract. BENCHMARK.json at
// the repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatchesSpec keeps the two from drifting.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // share of the baseline median a later change may lose; end-to-end only
}

// workloadSpec names one workload and the reason it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"get4k-loop", "CPU-bound 4 KiB rf3 page-fault reads on loopback: one one-sided read per op, so tcpnet per-message cost and the core read path do the work"},
	{"window4k-loop", "64-page compressed PutAll/GetAllInto/DeleteAll windows on one donor: per-message cost amortised 64x, so compress, batch alloc/free and slab do the work"},
	{"rw64k-rtt-rf3", "latency-bound 64 KiB get/replace at 1 ms RTT under rf3: serialized round trips through placement, replication fan-out and alloc+write+free; CPU idle"},
	{"rw64k-rtt-rs42", "same mix under rs4.2 with in-place overwrite: ec split/encode/join, 6-shard scatter and the hedge timer are on the path; capacity-for-CPU trade"},
	{"swap-sim", "simulated fabric, single thread: Tiered swap manager on a phase-changing trace; bypasses tcpnet, so swap, prefetch, pagetable, simnet and des do the work"},
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them, none is ever zero. The
// bounds on the wall-clock metrics are as wide as the contract allows: on the
// shared 2-CPU host this was sized on, ten runs of unchanged code spread by up
// to 17 % (interquartile range over median) on ops_per_s and get_p50_us.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"max_rss_mb", "MiB", "lower", 0.20},
}

// perLayer are the traced pass's metrics, one block per package of the
// repository plus "client" for the load generator's own records. A layer a
// workload does not touch reports 0.
var perLayer = []metricSpec{
	{"core.self_us_per_get", "us", "lower", 0},
	{"core.self_us_per_put", "us", "lower", 0},
	{"core.verbs_per_get", "count", "lower", 0},
	{"core.verbs_per_put", "count", "lower", 0},
	{"core.serial_rtts_per_get", "count", "lower", 0},
	{"core.serial_rtts_per_put", "count", "lower", 0},
	{"core.handler_us_per_op", "us", "lower", 0},
	{"core.handler_calls_per_op", "count", "lower", 0},
	{"core.background_verbs", "count", "lower", 0},

	{"tcpnet.verb_us_call_p50", "us", "lower", 0},
	{"tcpnet.verb_us_write_p50", "us", "lower", 0},
	{"tcpnet.verb_us_read_p50", "us", "lower", 0},
	{"tcpnet.wire_us_per_call", "us", "lower", 0},
	{"tcpnet.bytes_tx_per_user_byte", "B/B", "lower", 0},
	{"tcpnet.bytes_rx_per_user_byte", "B/B", "lower", 0},
	{"tcpnet.requests_per_op", "count", "lower", 0},
	{"tcpnet.inflight_max", "count", "higher", 0},

	{"faulty.delay_us_per_verb", "us", "lower", 0},

	{"replication.writes_per_put", "count", "lower", 0},
	{"replication.read_failovers_per_get", "count", "lower", 0},
	{"replication.write_aborts", "count", "lower", 0},
	{"replication.rollbacks", "count", "lower", 0},
	{"replication.overwrite_lost_copies", "count", "lower", 0},

	{"ec.encode_us_per_stripe", "us", "lower", 0},
	{"ec.reconstruct_us_per_stripe", "us", "lower", 0},
	{"ec.hedged_reads_per_get", "count", "lower", 0},
	{"ec.degraded_reads_per_get", "count", "lower", 0},

	{"placement.pick_ns", "ns", "lower", 0},

	{"slab.alloc_write_free_ns", "ns", "lower", 0},
	{"slab.registrations", "count", "lower", 0},
	{"slab.deregistrations", "count", "lower", 0},
	{"slab.live_blocks_end", "count", "lower", 0},
	{"slab.stored_bytes_per_user_byte", "B/B", "lower", 0},

	{"compress.compress_us_per_entry", "us", "lower", 0},
	{"compress.decompress_us_per_entry", "us", "lower", 0},
	{"compress.stored_ratio", "B/B", "higher", 0},

	{"swap.faults", "count", "lower", 0},
	{"swap.swap_ins", "count", "lower", 0},
	{"swap.swap_outs", "count", "lower", 0},
	{"swap.tier_demotions", "count", "lower", 0},
	{"swap.tier_promotions", "count", "lower", 0},
	{"swap.fault_latency_p50_sim_us", "us", "lower", 0},
	{"swap.sim_completion_ms", "ms", "lower", 0},
	{"swap.sim_completion_ms_leap", "ms", "lower", 0},

	{"prefetch.issued", "count", "lower", 0},
	{"prefetch.accuracy", "ratio", "higher", 0},
	{"prefetch.coverage", "ratio", "higher", 0},

	{"runtime.cpu_us_per_op", "us", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_inuse_mb", "MiB", "lower", 0},
	{"runtime.goroutines_end", "count", "lower", 0},

	{"client.get_p50_us", "us", "lower", 0},
	{"client.put_p50_us", "us", "lower", 0},
	{"client.get_p99_us", "us", "lower", 0},
	{"client.put_p99_us", "us", "lower", 0},
	{"client.get_p999_us", "us", "lower", 0},
	{"client.put_p999_us", "us", "lower", 0},
	{"client.samples_get", "count", "higher", 0},
	{"client.samples_put", "count", "higher", 0},
	{"client.window_ops_per_s_min", "1/s", "higher", 0},
	{"client.window_ops_per_s_max", "1/s", "higher", 0},
	{"client.opseq_hash", "count", "higher", 0},
	{"client.trace_overhead_pct", "%", "lower", 0},
}

func workloadNamed(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
