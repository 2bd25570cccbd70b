package main

import (
	"context"
	"fmt"
	"time"

	"godm/internal/des"
	"godm/internal/exp"
	"godm/internal/metrics"
	"godm/internal/swap"
	traces "godm/internal/workload"
)

const (
	// simPages is the simulated address space, frozen at exp.DefaultScale's
	// size: the phase-changing trace's footprint is about 2600 pages however
	// large the space, so a resident set of simPages/2 keeps it faulting for
	// as long as the run lasts. The fixed-work checkpoint is 8 accesses per
	// page, the length exp.Prefetch uses.
	simPages      = 2048
	simPagesQuick = 1024
	// simBatch page accesses are timed as one call: a single Touch is too
	// short to time on its own.
	simBatch = 256
	simShape = "phase-changing"
)

// swapSim drives a swap.Tiered manager on the simulated testbed from one
// goroutine. Wall-clock metrics say what the paging path costs the host;
// the simulated figures are taken at a fixed-work checkpoint at the end of
// set-up, so they are a pure function of the seed.
type swapSim struct {
	cfg        runConfig
	pages      int
	checkpoint int64 // accesses

	tb    *exp.Testbed
	mgr   *swap.Manager
	reg   *metrics.Registry
	trace *traces.Trace

	simCompletion time.Duration
	atCheckpoint  swap.Stats
	issued        int64
	faultP50      time.Duration
	runErr        error
}

func newSwapSim(cfg runConfig) *swapSim {
	w := &swapSim{cfg: cfg, pages: simPages}
	if cfg.Quick {
		w.pages = simPagesQuick
	}
	w.checkpoint = int64(8 * w.pages)
	return w
}

func (w *swapSim) clients() int { return 1 }
func (w *swapSim) verbs() bool  { return false }
func (w *swapSim) begin()       {}
func (w *swapSim) teardown()    {}

func flatRatio(int) float64 { return 0.5 }

// newSim builds a testbed sized like exp's ML runs (4x headroom over the
// working set per pool) with one manager on node 1.
func newSim(cfg swap.Config, pages int, reg *metrics.Registry) (*exp.Testbed, *swap.Manager, error) {
	pool := int64(4*pages) * swap.PageSize
	pool = (pool + (1<<20 - 1)) >> 20 << 20
	tb, err := exp.NewTestbed(exp.TestbedConfig{NodeCount: 4, SharedPoolBytes: pool, RecvPoolBytes: pool})
	if err != nil {
		return nil, nil, err
	}
	deps, err := tb.SwapDeps("vm-" + simShape)
	if err != nil {
		return nil, nil, err
	}
	if reg != nil {
		deps.Metrics = swap.NewMetrics(reg)
	}
	mgr, err := swap.NewManager(cfg, deps)
	if err != nil {
		return nil, nil, err
	}
	return tb, mgr, nil
}

// touch drives the next n accesses of the trace through the manager.
func (w *swapSim) touch(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		a, _ := w.trace.Next()
		if err := w.mgr.Touch(ctx, a.Page, a.Compute, a.Write); err != nil {
			return fmt.Errorf("touch page %d: %w", a.Page, err)
		}
	}
	return nil
}

// setup builds the simulation and runs it cold up to the fixed-work
// checkpoint: the resident set fills and the ladder starts moving, the
// counterpart of pre-populating a rig. The simulated figures are read there.
func (w *swapSim) setup(*tracer) error {
	w.reg = metrics.NewRegistry("bench/swap")
	tb, mgr, err := newSim(swap.Tiered(w.pages/2, 0, w.pages, flatRatio), w.pages, w.reg)
	if err != nil {
		return err
	}
	w.tb, w.mgr = tb, mgr
	w.trace = traces.NewShapeTrace(simShape, w.pages, 1<<40, w.cfg.Seed)
	w.simCompletion, err = tb.Run("cold", func(ctx context.Context, p *des.Proc) error {
		return w.touch(ctx, int(w.checkpoint))
	})
	w.atCheckpoint = mgr.Stats()
	w.issued = mgr.DetectorStats().Issued
	w.faultP50 = w.reg.Histogram("fault_latency").Quantile(0.5)
	return err
}

func (w *swapSim) loop(c *client) {
	_, w.runErr = w.tb.Run("job", func(ctx context.Context, p *des.Proc) error {
		for done := w.checkpoint; c.running(); done += simBatch {
			c.seq.note('t', uint64(done), 0)
			c.timed(opGet, simBatch, func(context.Context) error { return w.touch(ctx, simBatch) })
		}
		return nil
	})
}

func (w *swapSim) finish(res *result, t totals) {
	if w.runErr != nil {
		res.problem("simulation: %v", w.runErr)
	}
	if st := w.mgr.Stats(); st.Accesses != st.Hits+st.Faults {
		res.problem("swap stats: %d accesses != %d hits + %d faults", st.Accesses, st.Hits, st.Faults)
	}
	if !w.cfg.Trace {
		return
	}
	st := w.atCheckpoint
	res.set("swap.faults", float64(st.Faults))
	res.set("swap.swap_ins", float64(st.SwapIns))
	res.set("swap.swap_outs", float64(st.SwapOuts))
	res.set("swap.tier_demotions", float64(st.Demotions))
	res.set("swap.tier_promotions", float64(st.Promotions))
	res.set("swap.fault_latency_p50_sim_us", float64(w.faultP50)/1e3)
	res.set("swap.sim_completion_ms", float64(w.simCompletion)/1e6)
	res.set("prefetch.issued", float64(w.issued))
	res.set("prefetch.accuracy", st.PrefetchAccuracy())
	res.set("prefetch.coverage", st.PrefetchCoverage())

	// The ladder's cost is Tiered minus Leap on the same accesses.
	leap, err := w.completionUnder(swap.Leap(w.pages/2, 0, w.pages, flatRatio))
	if err != nil {
		res.problem("leap re-run: %v", err)
		return
	}
	res.set("swap.sim_completion_ms_leap", float64(leap)/1e6)
}

// completionUnder replays the checkpoint's accesses through a fresh manager
// of another configuration and returns the simulated completion time.
func (w *swapSim) completionUnder(cfg swap.Config) (time.Duration, error) {
	tb, mgr, err := newSim(cfg, w.pages, nil)
	if err != nil {
		return 0, err
	}
	return tb.Run("job", func(ctx context.Context, p *des.Proc) error {
		tr := traces.NewShapeTrace(simShape, w.pages, int(w.checkpoint), w.cfg.Seed)
		for {
			a, ok := tr.Next()
			if !ok {
				return nil
			}
			if err := mgr.Touch(ctx, a.Page, a.Compute, a.Write); err != nil {
				return fmt.Errorf("touch page %d: %w", a.Page, err)
			}
		}
	})
}
