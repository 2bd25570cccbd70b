// Package workload models the ten memory-intensive applications of the
// paper's Table 1 (§V): iterative machine-learning jobs (PageRank, logistic
// regression, TunkRank, k-means, SVM, connected components, ALS) and
// in-memory server systems (Memcached, Redis, VoltDB).
//
// The paper's testbed runs the real applications with 25–30 GB working sets;
// this package substitutes trace generators that reproduce the properties
// the evaluation depends on — access locality, iteration structure, compute
// density, page compressibility, and key skew — at laptop scale. Every
// generator is deterministic for a given seed.
package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// Kind classifies an application's access pattern.
type Kind int

// Application kinds.
const (
	// KindMLIterative scans its working set once per iteration with high
	// sequential locality (Spark-style ML jobs).
	KindMLIterative Kind = iota + 1
	// KindKeyValue serves zipfian point lookups (Memcached/Redis-style).
	KindKeyValue
	// KindOLTP runs short transactions touching a few random pages each
	// (VoltDB-style).
	KindOLTP
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindMLIterative:
		return "ml-iterative"
	case KindKeyValue:
		return "key-value"
	case KindOLTP:
		return "oltp"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Profile describes one Table-1 application.
type Profile struct {
	// Name is the application name as the paper reports it.
	Name string
	// Kind selects the trace generator.
	Kind Kind
	// WorkingSetGB and InputGB echo Table 1 (25–30 GB working sets from
	// 12–20 GB inputs per virtual server).
	WorkingSetGB float64
	InputGB      float64
	// Compressibility is the mean compression ratio of the application's pages
	// (drives Figure 3); Spread is the per-page standard deviation.
	Compressibility float64
	Spread          float64
	// Locality is the probability an ML scan continues sequentially.
	Locality float64
	// ComputePerPage is CPU time spent per page touched (ML kinds) or per
	// operation (server kinds).
	ComputePerPage time.Duration
	// ZipfS is the key-skew parameter for server kinds (>1).
	ZipfS float64
	// ReadFraction is the fraction of server operations that are reads
	// (Memcached ETC is 95% GET).
	ReadFraction float64
}

// Catalog returns the paper's ten applications (Table 1) in stable order.
func Catalog() []Profile {
	return []Profile{
		{Name: "PageRank", Kind: KindMLIterative, WorkingSetGB: 28, InputGB: 16,
			Compressibility: 3.2, Spread: 1.2, Locality: 0.90, ComputePerPage: 4 * time.Microsecond},
		{Name: "LogisticRegression", Kind: KindMLIterative, WorkingSetGB: 26, InputGB: 14,
			Compressibility: 4.2, Spread: 1.3, Locality: 0.95, ComputePerPage: 6 * time.Microsecond},
		{Name: "TunkRank", Kind: KindMLIterative, WorkingSetGB: 30, InputGB: 20,
			Compressibility: 2.6, Spread: 1.0, Locality: 0.85, ComputePerPage: 4 * time.Microsecond},
		{Name: "KMeans", Kind: KindMLIterative, WorkingSetGB: 27, InputGB: 15,
			Compressibility: 3.8, Spread: 1.2, Locality: 0.93, ComputePerPage: 8 * time.Microsecond},
		{Name: "SVM", Kind: KindMLIterative, WorkingSetGB: 25, InputGB: 12,
			Compressibility: 3.4, Spread: 1.1, Locality: 0.94, ComputePerPage: 7 * time.Microsecond},
		{Name: "ConnectedComponents", Kind: KindMLIterative, WorkingSetGB: 29, InputGB: 18,
			Compressibility: 2.8, Spread: 1.0, Locality: 0.80, ComputePerPage: 3 * time.Microsecond},
		{Name: "ALS", Kind: KindMLIterative, WorkingSetGB: 26, InputGB: 13,
			Compressibility: 3.0, Spread: 1.1, Locality: 0.91, ComputePerPage: 9 * time.Microsecond},
		{Name: "Memcached", Kind: KindKeyValue, WorkingSetGB: 25, InputGB: 12,
			Compressibility: 2.4, Spread: 0.8, Locality: 0.05, ComputePerPage: 2 * time.Microsecond,
			ZipfS: 1.1, ReadFraction: 0.95},
		{Name: "Redis", Kind: KindKeyValue, WorkingSetGB: 25, InputGB: 12,
			Compressibility: 2.0, Spread: 0.7, Locality: 0.05, ComputePerPage: 2 * time.Microsecond,
			ZipfS: 1.1, ReadFraction: 0.90},
		{Name: "VoltDB", Kind: KindOLTP, WorkingSetGB: 27, InputGB: 14,
			Compressibility: 1.7, Spread: 0.5, Locality: 0.20, ComputePerPage: 12 * time.Microsecond,
			ZipfS: 1.05, ReadFraction: 0.80},
	}
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown application %q", name)
}

// MLNames returns the five ML workloads used in Figure 7.
func MLNames() []string {
	return []string{"PageRank", "LogisticRegression", "TunkRank", "KMeans", "SVM"}
}

// ServerNames returns the three server workloads used in Figure 8.
func ServerNames() []string {
	return []string{"Redis", "Memcached", "VoltDB"}
}

// PageRatio returns the deterministic compressibility of page within an
// application with the given profile: a per-page gaussian around the
// profile mean, clamped to [1, 8]. The same (seed, page) always yields the
// same ratio, so repeated swap-outs of one page agree.
func (p Profile) PageRatio(seed int64, page int) float64 {
	rng := rand.New(rand.NewSource(seed ^ int64(page)*0x9E3779B9))
	r := p.Compressibility + rng.NormFloat64()*p.Spread
	if r < 1 {
		r = 1
	}
	if r > 8 {
		r = 8
	}
	return r
}

// Access is one step of a trace: touch Page, then spend Compute.
type Access struct {
	Page    int
	Compute time.Duration
	// Write marks operations that dirty the page (server kinds).
	Write bool
}

// Trace generates a deterministic access stream.
type Trace struct {
	next func() (Access, bool)
}

// Next returns the next access; ok is false at end of trace.
func (t *Trace) Next() (Access, bool) { return t.next() }

// Drain consumes the whole trace (tests and small experiments).
func (t *Trace) Drain() []Access {
	var out []Access
	for {
		a, ok := t.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// NewMLTrace builds an iterative scan over pages working-set pages for
// iters iterations. Within an iteration the scan is mostly sequential
// (profile locality) with occasional random jumps, which is how Spark-style
// jobs walk RDD partitions.
func NewMLTrace(p Profile, pages, iters int, seed int64) *Trace {
	if pages <= 0 || iters <= 0 {
		panic("workload: pages and iters must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	iter, step, cur := 0, 0, 0
	return &Trace{next: func() (Access, bool) {
		if iter >= iters {
			return Access{}, false
		}
		a := Access{Page: cur, Compute: p.ComputePerPage, Write: true}
		step++
		if step >= pages {
			step = 0
			iter++
			cur = 0
		} else if rng.Float64() < p.Locality {
			cur = (cur + 1) % pages
		} else {
			cur = rng.Intn(pages)
		}
		return a, true
	}}
}

// NewServerTrace builds nOps zipfian point operations over pages pages
// (Memcached ETC-style for key-value kinds, multi-page transactions for
// OLTP). Reads and writes follow the profile's ReadFraction.
func NewServerTrace(p Profile, pages, nOps int, seed int64) *Trace {
	if pages <= 1 || nOps <= 0 {
		panic("workload: pages must be > 1 and nOps positive")
	}
	rng := rand.New(rand.NewSource(seed))
	s := p.ZipfS
	if s <= 1 {
		s = 1.1
	}
	zipf := rand.NewZipf(rng, s, 1, uint64(pages-1))
	emitted := 0
	// OLTP transactions touch a small burst of pages per operation.
	burst := 0
	burstLeft := 0
	var burstWrite bool
	return &Trace{next: func() (Access, bool) {
		if emitted >= nOps {
			return Access{}, false
		}
		if p.Kind == KindOLTP {
			if burstLeft == 0 {
				burst = 2 + rng.Intn(3)
				burstLeft = burst
				burstWrite = rng.Float64() >= p.ReadFraction
			}
			burstLeft--
			if burstLeft == 0 {
				emitted++
			}
			return Access{
				Page:    int(zipf.Uint64()),
				Compute: p.ComputePerPage / time.Duration(burst),
				Write:   burstWrite,
			}, true
		}
		emitted++
		return Access{
			Page:    int(zipf.Uint64()),
			Compute: p.ComputePerPage,
			Write:   rng.Float64() >= p.ReadFraction,
		}, true
	}}
}

// NewTrace selects the generator for the profile's kind. For ML kinds,
// opCount is the iteration count; for server kinds it is the operation
// count.
func NewTrace(p Profile, pages, opCount int, seed int64) *Trace {
	switch p.Kind {
	case KindMLIterative:
		return NewMLTrace(p, pages, opCount, seed)
	case KindKeyValue, KindOLTP:
		return NewServerTrace(p, pages, opCount, seed)
	default:
		panic(fmt.Sprintf("workload: unknown kind %v", p.Kind))
	}
}
