package des

import (
	"context"
	"sync"
)

type procKey struct{}

// NewContext returns a context carrying the simulation process p. The
// simulated transport fabric extracts it to charge transfer time to the
// calling process; real transports never look for it.
func NewContext(parent context.Context, p *Proc) context.Context {
	return context.WithValue(parent, procKey{}, p)
}

// FromContext extracts the simulation process from ctx, if present.
func FromContext(ctx context.Context) (*Proc, bool) {
	p, ok := ctx.Value(procKey{}).(*Proc)
	return p, ok
}

// Simulated reports whether ctx carries a simulation process.
func Simulated(ctx context.Context) bool {
	_, ok := FromContext(ctx)
	return ok
}

// Each runs fn(i) for every i in [0, n), returns when all have returned, and
// reports what each returned: the one fan-out under every multi-donor
// operation. Over a real fabric the calls run concurrently — the multiplexed
// transport pipelines them, so n operations cost one round trip. When ctx
// carries a simulated process they run one after another on the caller's
// goroutine: a process is cooperative and must issue its fabric operations
// itself, in an order a seeded replay can reproduce.
//
// Every position is always attempted — an error does not stop the loop. A
// caller rolling back needs the full success set, and the per-stream operation
// sequence a fault injector sees must not depend on which position fails
// first.
func Each(ctx context.Context, n int, fn func(i int) error) []error {
	errs := make([]error, n)
	if n <= 1 || Simulated(ctx) {
		for i := range errs {
			errs[i] = fn(i)
		}
		return errs
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range errs {
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errs
}
