package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is set by a handful of outliers and does
// not repeat between runs.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted, and false when
// fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond {
		return 0, false
	}
	return sorted[idx], true
}

// median returns the middle of vals (mean of the two middles when even);
// vals is sorted in place.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// upperQuartile aggregates one value per measurement window into the
// reported figure: the third best of ten (scaled for other window counts).
// Interference from the shared host is one-sided — it only ever makes a
// window worse — so a value from the good end repeats far better than the
// mean, while still requiring several windows to agree. higherBetter says
// which end is the good one. Windows without a value (NaN) are skipped.
func upperQuartile(windows []float64, higherBetter bool) float64 {
	vals := make([]float64, 0, len(windows))
	for _, v := range windows {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := (len(vals)*3 + 9) / 10 // 10 windows -> 3rd best, 5 -> 2nd, 1 -> 1st
	if rank < 1 {
		rank = 1
	}
	if higherBetter {
		return vals[len(vals)-rank]
	}
	return vals[rank-1]
}

// span is one child interval of a traced call, in nanoseconds on the
// tracer's clock.
type span struct{ start, end int64 }

// coverAndChain clips spans to [lo, hi] and returns the total time they
// cover (overlaps counted once) and the longest chain of spans in which each
// starts only after the previous one ended. A call that frees three old
// copies in parallel, then on each of three donors allocates and writes, has
// nine verbs but a chain of three: the serialized round trips it pays. (The
// three donors' alloc and write spans interleave, so merging overlapping
// spans into "waves" would count two.) spans is reordered in place.
func coverAndChain(spans []span, lo, hi int64) (covered int64, chain int) {
	kept := spans[:0]
	for _, s := range spans {
		if s.start < lo {
			s.start = lo
		}
		if s.end > hi {
			s.end = hi
		}
		if s.end > s.start {
			kept = append(kept, s)
		}
	}
	insertionSort(kept, func(a, b span) bool { return a.start < b.start })
	curEnd := int64(math.MinInt64)
	for _, s := range kept {
		if s.start >= curEnd {
			covered += s.end - s.start
			curEnd = s.end
		} else if s.end > curEnd {
			covered += s.end - curEnd
			curEnd = s.end
		}
	}
	// Longest chain of disjoint intervals: take the earliest-ending span
	// that starts after the last one taken.
	insertionSort(kept, func(a, b span) bool { return a.end < b.end })
	last := int64(math.MinInt64)
	for _, s := range kept {
		if s.start >= last {
			chain++
			last = s.end
		}
	}
	return covered, chain
}

// insertionSort orders the handful of spans one call has without the
// allocations of sort.Slice, so the traced pass adds none per op.
func insertionSort(s []span, less func(a, b span) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// spread is the interquartile range of vals over their median, the
// run-to-run noise figure -repeat and -compare report. Quartiles follow
// Python's statistics.quantiles(vals, n=4) (exclusive method).
func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}
