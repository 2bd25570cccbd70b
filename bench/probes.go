package main

import (
	"time"

	"godm/internal/compress"
	"godm/internal/core"
	"godm/internal/ec"
	"godm/internal/placement"
	"godm/internal/slab"
)

// A probe times one layer's public functions on inputs shaped like the
// workload's, for layers whose cost cannot be read off a span from outside.
// Each runs only where the layer is on the workload's path; elsewhere the
// metric stays 0.

// probe returns the time of one f, as the median over three batches of
// about 15 ms each.
func probe(f func()) time.Duration {
	const batch = 15 * time.Millisecond
	per := make([]float64, 0, 3)
	for b := 0; b < 3; b++ {
		n := 0
		start := time.Now()
		for time.Since(start) < batch {
			f()
			n++
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(per))
}

func runProbes(res *result, b *tcpBase) {
	probeSlab(res, b.entryBytes)
	if b.withRTT { // the workloads whose puts pick donors
		probePlacement(res, b.g.owner().DurabilityPolicy().Width())
	}
	if b.durability == "rs4.2" {
		probeEC(res, b.entryBytes)
	}
}

// probeSlab: alloc + write + free of one entry on a pool laid out like a
// donor's receive pool.
func probeSlab(res *result, size int) {
	pool, err := slab.NewPool("probe", 16<<20, slab.WithSlabSize(1<<20), slab.WithShards(core.DefaultPoolShards))
	if err != nil {
		return
	}
	data := make([]byte, size)
	d := probe(func() {
		h, err := pool.Alloc(size)
		if err != nil {
			return
		}
		_ = pool.Write(h, data) // the block was just sized for data
		_ = pool.Free(h)
	})
	res.set("slab.alloc_write_free_ns", float64(d))
}

// probePlacement: one pick of width donors among the rig's seven.
func probePlacement(res *result, width int) {
	cands := make([]placement.Candidate, rigNodes-1)
	for i := range cands {
		cands[i] = placement.Candidate{Node: placement.NodeID(i + 2), FreeBytes: donorPoolBytes}
	}
	rr := placement.NewRoundRobin()
	d := probe(func() { _, _ = rr.Pick(cands, width) })
	res.set("placement.pick_ns", float64(d))
}

// probeEC: encode one stripe of the workload's entry size under RS(4,2),
// and rebuild it with two data shards gone.
func probeEC(res *result, size int) {
	code, err := ec.New(4, 2)
	if err != nil {
		return
	}
	data := make([]byte, size)
	fillPayload(data, 1)
	shards := make([][]byte, code.Shards())
	for i := range shards {
		shards[i] = make([]byte, code.ShardLen(size))
	}
	enc := probe(func() {
		code.Split(data, shards)
		_ = code.Encode(shards)
	})
	present := make([]bool, code.Shards())
	rec := probe(func() {
		copy(present, []bool{false, true, false, true, true, true}) // ReconstructData marks what it rebuilt
		_ = code.ReconstructData(shards, present)
	})
	res.set("ec.encode_us_per_stripe", float64(enc)/1e3)
	res.set("ec.reconstruct_us_per_stripe", float64(rec)/1e3)
}

// probeCompress: the client's per-entry codec on the workload's own pages.
func probeCompress(res *result, w *window4k) {
	codec, err := compress.NewCodec(compress.Four)
	if err != nil {
		return
	}
	page := make([]byte, w.entryBytes)
	i := 0
	var deflated []byte
	comp := probe(func() {
		w.stamp(page, uint64(i))
		i++
		if out, ok := codec.CompressEntry(page); ok {
			deflated = out
		}
	})
	res.set("compress.compress_us_per_entry", float64(comp)/1e3)
	if deflated == nil {
		return
	}
	dec := probe(func() { _ = compress.DecompressEntryInto(page, deflated) })
	res.set("compress.decompress_us_per_entry", float64(dec)/1e3)
}
