// Package placement implements the memory-balancing node selectors from
// §IV.E of the paper: when a node must park a data entry remotely, the node
// manager picks one primary and, for fault tolerance, additional replica
// nodes from the candidates its group leader advertises. The paper names
// four algorithms for minimizing memory imbalance across the cluster:
// random, round robin, weighted round robin, and the power of two choices.
package placement

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// NodeID names a node; it matches pagetable.NodeID numerically but is kept
// local to avoid a dependency cycle.
type NodeID int

// Candidate describes one remote node offering disaggregated memory.
type Candidate struct {
	Node NodeID
	// FreeBytes is the node's advertised free receive-pool capacity.
	FreeBytes int64
	// Latency is the observed round-trip figure to the node (for example
	// the digest plane's per-node get p99). Zero means unknown; only the
	// load-aware balancer consults it.
	Latency time.Duration
	// Group tags the node's failure domain (rack, chassis, power feed).
	// Zero means untagged; only the SpreadDomains decorator consults it.
	Group int
}

// ErrInsufficientCandidates is returned when fewer distinct candidates exist
// than the number of copies requested.
var ErrInsufficientCandidates = errors.New("placement: not enough candidate nodes")

// Balancer selects n distinct nodes from candidates to host an entry (the
// first is the primary). Implementations must be safe for concurrent use.
type Balancer interface {
	// Pick returns n distinct node IDs drawn from candidates.
	Pick(candidates []Candidate, n int) ([]NodeID, error)
	// Name identifies the policy in experiment output.
	Name() string
}

func validate(candidates []Candidate, n int) error {
	if n <= 0 {
		return fmt.Errorf("placement: n = %d must be positive", n)
	}
	if len(candidates) < n {
		return fmt.Errorf("%w: need %d, have %d", ErrInsufficientCandidates, n, len(candidates))
	}
	return nil
}

// positive filters out candidates advertising no free capacity. The
// load-sensitive balancers never return a full node: parking an entry there
// is guaranteed to fail, so an all-full cluster must surface
// ErrInsufficientCandidates instead of a doomed pick.
func positive(candidates []Candidate) []Candidate {
	out := make([]Candidate, 0, len(candidates))
	for _, c := range candidates {
		if c.FreeBytes > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Random picks uniformly at random without replacement.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom returns a seeded random balancer.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Balancer.
func (r *Random) Name() string { return "random" }

// Pick implements Balancer.
func (r *Random) Pick(candidates []Candidate, n int) ([]NodeID, error) {
	if err := validate(candidates, n); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.rng.Perm(len(candidates))[:n]
	out := make([]NodeID, n)
	for i, j := range idx {
		out[i] = candidates[j].Node
	}
	return out, nil
}

// RoundRobin cycles through candidates in node-ID order regardless of load.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

// NewRoundRobin returns a round-robin balancer.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Balancer.
func (rr *RoundRobin) Name() string { return "round-robin" }

// Pick implements Balancer.
func (rr *RoundRobin) Pick(candidates []Candidate, n int) ([]NodeID, error) {
	if err := validate(candidates, n); err != nil {
		return nil, err
	}
	// The directory lists members in ID order, so the usual input is sorted
	// already and is read in place.
	byNode := func(a, b Candidate) int { return cmp.Compare(a.Node, b.Node) }
	sorted := candidates
	if !slices.IsSortedFunc(sorted, byNode) {
		sorted = slices.Clone(candidates)
		slices.SortFunc(sorted, byNode)
	}
	rr.mu.Lock()
	start := rr.next
	rr.next += n
	rr.mu.Unlock()
	out := make([]NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = sorted[(start+i)%len(sorted)].Node
	}
	return out, nil
}

// WeightedRoundRobin favors candidates proportionally to advertised free
// memory: each pick samples without replacement with probability mass equal
// to FreeBytes.
type WeightedRoundRobin struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewWeightedRoundRobin returns a seeded weighted balancer.
func NewWeightedRoundRobin(seed int64) *WeightedRoundRobin {
	return &WeightedRoundRobin{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Balancer.
func (w *WeightedRoundRobin) Name() string { return "weighted-rr" }

// Pick implements Balancer. Candidates with zero or negative free bytes are
// skipped, never returned: when too few nodes have room the pick fails with
// ErrInsufficientCandidates rather than handing back a full node.
func (w *WeightedRoundRobin) Pick(candidates []Candidate, n int) ([]NodeID, error) {
	pool := positive(candidates)
	if err := validate(pool, n); err != nil {
		return nil, err
	}
	out := make([]NodeID, 0, n)
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(out) < n {
		var total int64
		for _, c := range pool {
			total += c.FreeBytes
		}
		chosen := 0
		target := w.rng.Int63n(total)
		var cum int64
		for i, c := range pool {
			cum += c.FreeBytes
			if target < cum {
				chosen = i
				break
			}
		}
		out = append(out, pool[chosen].Node)
		pool = append(pool[:chosen], pool[chosen+1:]...)
	}
	return out, nil
}

// PowerOfTwo samples two random candidates per copy and keeps the one with
// more free memory (Mitzenmacher's power of two choices, the paper's [31]).
type PowerOfTwo struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewPowerOfTwo returns a seeded power-of-two-choices balancer.
func NewPowerOfTwo(seed int64) *PowerOfTwo {
	return &PowerOfTwo{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Balancer.
func (p *PowerOfTwo) Name() string { return "power-of-two" }

// Pick implements Balancer. Like the weighted balancer, candidates without
// free capacity are skipped instead of returned when samples run out.
func (p *PowerOfTwo) Pick(candidates []Candidate, n int) ([]NodeID, error) {
	pool := positive(candidates)
	if err := validate(pool, n); err != nil {
		return nil, err
	}
	out := make([]NodeID, 0, n)
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(out) < n {
		var chosen int
		if len(pool) == 1 {
			chosen = 0
		} else {
			a := p.rng.Intn(len(pool))
			b := p.rng.Intn(len(pool) - 1)
			if b >= a {
				b++
			}
			chosen = a
			if pool[b].FreeBytes > pool[a].FreeBytes {
				chosen = b
			}
		}
		out = append(out, pool[chosen].Node)
		pool = append(pool[:chosen], pool[chosen+1:]...)
	}
	return out, nil
}

// LoadAware is power-of-two choices scored on live digest figures rather
// than free bytes alone: each pick samples two candidates and keeps the one
// with the better free-capacity-per-latency score, so a node that is roomy
// but slow (saturated CPU, deep queues) loses to a slightly fuller fast one.
// Free-byte figures come from heartbeats and latency figures from the
// observability plane's per-node digests.
type LoadAware struct {
	mu  sync.Mutex
	rng *rand.Rand
	// ref normalizes the latency discount: figures at or below it cost
	// nothing, a figure k×ref divides the score by k.
	ref time.Duration
}

// NewLoadAware returns a seeded load-aware balancer normalizing latency
// against refLatency (non-positive defaults to 1 ms).
func NewLoadAware(seed int64, refLatency time.Duration) *LoadAware {
	if refLatency <= 0 {
		refLatency = time.Millisecond
	}
	return &LoadAware{rng: rand.New(rand.NewSource(seed)), ref: refLatency}
}

// Name implements Balancer.
func (l *LoadAware) Name() string { return "load-aware" }

// score is free capacity discounted by the latency multiple.
func (l *LoadAware) score(c Candidate) float64 {
	s := float64(c.FreeBytes)
	if c.Latency > l.ref {
		s *= float64(l.ref) / float64(c.Latency)
	}
	return s
}

// Pick implements Balancer. Full candidates are never returned.
func (l *LoadAware) Pick(candidates []Candidate, n int) ([]NodeID, error) {
	pool := positive(candidates)
	if err := validate(pool, n); err != nil {
		return nil, err
	}
	out := make([]NodeID, 0, n)
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(out) < n {
		var chosen int
		if len(pool) == 1 {
			chosen = 0
		} else {
			a := l.rng.Intn(len(pool))
			b := l.rng.Intn(len(pool) - 1)
			if b >= a {
				b++
			}
			chosen = a
			if l.score(pool[b]) > l.score(pool[a]) {
				chosen = b
			}
		}
		out = append(out, pool[chosen].Node)
		pool = append(pool[:chosen], pool[chosen+1:]...)
	}
	return out, nil
}

// domainSpread decorates a balancer with failure-domain spreading for
// erasure-coded stripes: an RS(k, m) stripe that loses a whole rack must not
// lose more than m shards, so no two shards should share a Candidate.Group.
// Picks go one node at a time, restricting the pool to domains not yet used;
// when every remaining candidate's domain is already used (or candidates are
// untagged, Group 0), the pool widens to all remaining candidates — domain
// spread is best-effort, capacity placement never fails because a cluster
// has fewer racks than shards.
type domainSpread struct {
	inner Balancer
}

// SpreadDomains wraps a balancer so successive picks of one Pick call land
// on distinct failure domains whenever candidates carry Group tags.
func SpreadDomains(b Balancer) Balancer { return &domainSpread{inner: b} }

// Name implements Balancer.
func (d *domainSpread) Name() string { return d.inner.Name() + "+spread" }

// Pick implements Balancer.
func (d *domainSpread) Pick(candidates []Candidate, n int) ([]NodeID, error) {
	if err := validate(candidates, n); err != nil {
		return nil, err
	}
	remaining := append([]Candidate(nil), candidates...)
	usedDomain := map[int]bool{}
	out := make([]NodeID, 0, n)
	fresh := make([]Candidate, 0, len(remaining))
	for len(out) < n {
		fresh = fresh[:0]
		for _, c := range remaining {
			if c.Group == 0 || !usedDomain[c.Group] {
				fresh = append(fresh, c)
			}
		}
		pool := fresh
		if len(pool) == 0 {
			pool = remaining
		}
		picked, err := d.inner.Pick(pool, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, picked[0])
		for i, c := range remaining {
			if c.Node == picked[0] {
				if c.Group != 0 {
					usedDomain[c.Group] = true
				}
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	return out, nil
}

// Compile-time interface compliance checks.
var (
	_ Balancer = (*Random)(nil)
	_ Balancer = (*RoundRobin)(nil)
	_ Balancer = (*WeightedRoundRobin)(nil)
	_ Balancer = (*PowerOfTwo)(nil)
	_ Balancer = (*LoadAware)(nil)
	_ Balancer = (*domainSpread)(nil)
)

// Imbalance summarizes how evenly a placement stream landed across nodes:
// the ratio of the maximum node load to the mean (1.0 is perfect balance).
func Imbalance(loads map[NodeID]int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var total, maxLoad int64
	for _, v := range loads {
		total += v
		if v > maxLoad {
			maxLoad = v
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(loads))
	return float64(maxLoad) / mean
}
