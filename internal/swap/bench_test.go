package swap_test

import (
	"context"
	"testing"

	"godm/internal/des"
	"godm/internal/exp"
	"godm/internal/swap"
	"godm/internal/workload"
)

// BenchmarkSwapTouch is what one simulated page access costs the host: the
// Tiered manager on the simulated testbed, driven by the phase-changing trace
// at half its working set resident — the configuration of the swap-sim
// workload in bench/. The resident set is filled and the ladder moving before
// the timer starts. scripts/alloc_budget.sh holds its B/op: the engine reads
// parked batches into its own scratch, so an access allocates bookkeeping
// only.
func BenchmarkSwapTouch(b *testing.B) {
	const pages = 2048
	pool := int64(4*pages) * swap.PageSize
	tb, err := exp.NewTestbed(exp.TestbedConfig{NodeCount: 4, SharedPoolBytes: pool, RecvPoolBytes: pool})
	if err != nil {
		b.Fatal(err)
	}
	deps, err := tb.SwapDeps("vm-bench")
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := swap.NewManager(swap.Tiered(pages/2, 0, pages, func(int) float64 { return 0.5 }), deps)
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.NewShapeTrace("phase-changing", pages, 1<<40, 1)
	touch := func(ctx context.Context, n int) error {
		for i := 0; i < n; i++ {
			a, _ := trace.Next()
			if err := mgr.Touch(ctx, a.Page, a.Compute, a.Write); err != nil {
				return err
			}
		}
		return nil
	}
	b.ReportAllocs()
	_, err = tb.Run("job", func(ctx context.Context, p *des.Proc) error {
		if err := touch(ctx, 8*pages); err != nil {
			return err
		}
		b.ResetTimer()
		defer b.StopTimer()
		return touch(ctx, b.N)
	})
	if err != nil {
		b.Fatal(err)
	}
}
