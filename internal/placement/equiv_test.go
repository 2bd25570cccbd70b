package placement

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// refRoundRobin and refSpread are RoundRobin.Pick and domainSpread.Pick as
// they were before they stopped copying and sorting on every pick: the
// reference the current ones must agree with, pick for pick.
type refRoundRobin struct {
	mu   sync.Mutex
	next int
}

func (rr *refRoundRobin) Name() string { return "ref-round-robin" }

func (rr *refRoundRobin) Pick(candidates []Candidate, n int) ([]NodeID, error) {
	if err := validate(candidates, n); err != nil {
		return nil, err
	}
	sorted := append([]Candidate(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
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

func refSpread(inner Balancer, candidates []Candidate, n int) ([]NodeID, error) {
	if err := validate(candidates, n); err != nil {
		return nil, err
	}
	remaining := append([]Candidate(nil), candidates...)
	usedDomain := map[int]bool{}
	out := make([]NodeID, 0, n)
	for len(out) < n {
		fresh := make([]Candidate, 0, len(remaining))
		for _, c := range remaining {
			if c.Group == 0 || !usedDomain[c.Group] {
				fresh = append(fresh, c)
			}
		}
		pool := fresh
		if len(pool) == 0 {
			pool = remaining
		}
		picked, err := inner.Pick(pool, 1)
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

// TestPicksMatchReference: over random candidate sets — in ID order as the
// directory lists them, and shuffled; tagged with domains and not — the
// round-robin balancer and the domain spread over it, and over the seeded
// balancers that pick by position, return what the reference returns, in the
// same order, call after call.
func TestPicksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pairs := []struct {
		name     string
		got, ref func(seed int64) Balancer
	}{
		{"round-robin", func(int64) Balancer { return NewRoundRobin() }, func(int64) Balancer { return &refRoundRobin{} }},
		{"random", func(s int64) Balancer { return NewRandom(s) }, func(s int64) Balancer { return NewRandom(s) }},
		{"power-of-two", func(s int64) Balancer { return NewPowerOfTwo(s) }, func(s int64) Balancer { return NewPowerOfTwo(s) }},
	}
	for _, p := range pairs {
		for round := int64(0); round < 50; round++ {
			got, ref := p.got(round), p.ref(round)
			spreadGot, spreadRef := SpreadDomains(p.got(round)), p.ref(round)
			for call := 0; call < 40; call++ {
				cands := make([]Candidate, 1+rng.Intn(12))
				for i := range cands {
					cands[i] = Candidate{Node: NodeID(1 + rng.Intn(16)), FreeBytes: int64(1 + rng.Intn(1<<20)), Group: rng.Intn(4)}
				}
				slices.SortFunc(cands, func(a, b Candidate) int { return int(a.Node - b.Node) })
				cands = slices.CompactFunc(cands, func(a, b Candidate) bool { return a.Node == b.Node })
				if call%2 == 1 {
					rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
				}
				n := 1 + rng.Intn(len(cands))
				before := slices.Clone(cands)
				a, errA := got.Pick(cands, n)
				b, errB := ref.Pick(slices.Clone(cands), n)
				if !slices.Equal(a, b) || (errA == nil) != (errB == nil) {
					t.Fatalf("%s round %d call %d: Pick(%v, %d) = %v, %v; reference %v, %v", p.name, round, call, cands, n, a, errA, b, errB)
				}
				a, errA = spreadGot.Pick(cands, n)
				b, errB = refSpread(spreadRef, slices.Clone(cands), n)
				if !slices.Equal(a, b) || (errA == nil) != (errB == nil) {
					t.Fatalf("%s+spread round %d call %d: Pick(%v, %d) = %v, %v; reference %v, %v", p.name, round, call, cands, n, a, errA, b, errB)
				}
				if !slices.Equal(cands, before) {
					t.Fatalf("%s round %d call %d: Pick reordered its candidates: %v, were %v", p.name, round, call, cands, before)
				}
			}
		}
	}
}

// BenchmarkSpreadRoundRobin6 is the rs4.2 put's placement: six donors picked
// from an ID-ordered candidate list through the domain spread.
func BenchmarkSpreadRoundRobin6(b *testing.B) {
	cands := make([]Candidate, 8)
	for i := range cands {
		cands[i] = Candidate{Node: NodeID(i + 2), FreeBytes: 64 << 20}
	}
	bal := SpreadDomains(NewRoundRobin())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bal.Pick(cands, 6); err != nil {
			b.Fatal(err)
		}
	}
}
