// Package prefetch implements a Leap-style majority-trend stride detector
// (Maruf & Chowdhury, "Effectively Prefetching Remote Memory with Leap",
// ATC'20, via the PAPERS.md surveys). The detector watches the stream of
// page accesses, keeps the last H inter-access deltas in a ring, and on a
// fault votes for a majority trend: a Boyer–Moore pass over the most recent
// w deltas, with w shrinking exponentially (H, H/2, H/4, …) until a
// majority emerges or the window bottoms out. A detected trend Δ yields a
// prediction list page+Δ, page+2Δ, …, clamped to the address-space bound.
//
// Prefetch depth is adaptive (AIMD): a streak of prefetch hits doubles the
// depth up to a cap, a wasted prefetch (evicted before use) halves it. The
// detector is pure bookkeeping — no clocks, no randomness — so a fixed
// access trace always produces the identical prediction sequence, matching
// the repo's DES determinism contract.
package prefetch

import "fmt"

// The detector's shape, fixed: H deltas of history, the smallest window the
// majority vote tries, and the AIMD depth controller's start, cap and
// doubling streak.
const (
	historySize = 32
	minWindow   = 4
	initDepth   = 4
	maxDepth    = 64
	hitStreak   = 8
)

// Stats counts detector activity.
type Stats struct {
	Records     int64 // accesses observed
	Predictions int64 // Predict calls that found a trend
	NoTrend     int64 // Predict calls with no majority at any window size
	Issued      int64 // pages predicted (across all Predict calls)
	Hits        int64 // prefetched pages later accessed
	Wastes      int64 // prefetched pages evicted unused
}

// Detector is one process's stride detector. It is not safe for concurrent
// use; the swap engine drives it from the simulation's event loop.
type Detector struct {
	space  int   // predictions stay within [0, space)
	deltas []int // ring buffer of recent deltas
	head   int   // next write position
	n      int   // filled entries
	last   int   // previous page accessed
	seen   bool  // last is valid
	depth  *Depth
	preds  []int // Predict's result, reused from call to call
	stats  Stats
}

// New builds a detector whose predictions stay within [0, addressSpace): one
// that could predict beyond the address space would fetch garbage.
func New(addressSpace int) (*Detector, error) {
	if addressSpace <= 0 {
		return nil, fmt.Errorf("prefetch: address space %d must be positive", addressSpace)
	}
	return &Detector{
		space:  addressSpace,
		deltas: make([]int, historySize),
		depth:  NewDepth(initDepth, maxDepth, hitStreak),
	}, nil
}

// Record observes one page access, pushing its delta from the previous
// access into the history ring. O(1).
func (d *Detector) Record(page int) {
	d.stats.Records++
	if d.seen {
		d.deltas[d.head] = page - d.last
		d.head = (d.head + 1) % len(d.deltas)
		if d.n < len(d.deltas) {
			d.n++
		}
	}
	d.last = page
	d.seen = true
}

// Predict votes for a majority trend over the recent history and, if one
// emerges, returns up to Depth() predicted pages page+Δ, page+2Δ, …, all
// within the address space. A zero delta majority (repeated same-page
// accesses) is no trend. Predictions are not deduplicated against resident
// state — that is the caller's business. The result is the detector's own
// storage, valid until the next Predict.
func (d *Detector) Predict(page int) []int {
	delta, ok := d.majority()
	if !ok || delta == 0 {
		d.stats.NoTrend++
		return nil
	}
	d.stats.Predictions++
	depth := d.depth.Get()
	out := d.preds[:0]
	next := page
	for i := 0; i < depth; i++ {
		next += delta
		if next < 0 || next >= d.space {
			break
		}
		out = append(out, next)
	}
	d.preds = out
	d.stats.Issued += int64(len(out))
	return out
}

// majority runs the exponentially shrinking Boyer–Moore vote: try the last
// w deltas with w = min(n, H), then w/2, w/4, … down to minWindow. A
// candidate wins a window only if it holds a strict majority there.
func (d *Detector) majority() (int, bool) {
	for w := d.n; w >= minWindow; w /= 2 {
		cand, count := 0, 0
		for i := 0; i < w; i++ {
			v := d.at(i)
			if count == 0 {
				cand, count = v, 1
			} else if v == cand {
				count++
			} else {
				count--
			}
		}
		if count == 0 {
			continue
		}
		// Verify the candidate truly holds a strict majority of the window.
		total := 0
		for i := 0; i < w; i++ {
			if d.at(i) == cand {
				total++
			}
		}
		if 2*total > w {
			return cand, true
		}
	}
	return 0, false
}

// at returns the i-th most recent delta (0 = newest).
func (d *Detector) at(i int) int {
	idx := d.head - 1 - i
	for idx < 0 {
		idx += len(d.deltas)
	}
	return d.deltas[idx]
}

// Hit records that a prefetched page was accessed before eviction.
func (d *Detector) Hit() {
	d.stats.Hits++
	d.depth.Hit()
}

// Waste records a prefetched page evicted unused.
func (d *Detector) Waste() {
	d.stats.Wastes++
	d.depth.Waste()
}

// Depth is the current adaptive prefetch depth.
func (d *Detector) Depth() int { return d.depth.Get() }

// Stats returns a copy of the counters.
func (d *Detector) Stats() Stats { return d.stats }

// Depth is an AIMD-style prefetch-depth controller, shared by the swap
// engine's stride detector and dmcache's sibling read-ahead: a streak of
// hits doubles the depth (up to max), one waste halves it (down to 1).
type Depth struct {
	depth  int
	max    int
	streak int
	need   int
}

// NewDepth builds a controller starting at init, capped at max, doubling
// after streak consecutive hits.
func NewDepth(init, max, streak int) *Depth {
	if init > max {
		init = max
	}
	return &Depth{depth: init, max: max, need: streak}
}

// Get returns the current depth.
func (d *Depth) Get() int { return d.depth }

// Hit advances the streak, doubling the depth when it completes.
func (d *Depth) Hit() {
	d.streak++
	if d.streak >= d.need {
		d.streak = 0
		d.depth *= 2
		if d.depth > d.max {
			d.depth = d.max
		}
	}
}

// Waste halves the depth and resets the streak.
func (d *Depth) Waste() {
	d.streak = 0
	d.depth /= 2
	if d.depth < 1 {
		d.depth = 1
	}
}
