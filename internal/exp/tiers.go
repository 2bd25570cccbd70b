package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"godm/internal/des"
	"godm/internal/memdev"
)

// TierRow is one rung of the memory hierarchy.
type TierRow struct {
	Tier    string
	Latency time.Duration // measured 4 KB access on the simulated testbed
}

// TiersResult quantifies the §VI discussion: the latency ladder from local
// DRAM through the node-coordinated shared pool and RDMA remote memory to
// flash and spinning disk — the gap structure that makes disaggregated
// memory a worthwhile tier at all.
type TiersResult struct {
	Rows []TierRow
}

// Tiers measures one 4 KB access at every tier of a live testbed.
func Tiers() (*TiersResult, error) {
	tb, err := NewTestbed(TestbedConfig{NodeCount: 2})
	if err != nil {
		return nil, err
	}
	vs, err := tb.Nodes[0].AddServer("probe", 0)
	if err != nil {
		return nil, err
	}
	ssd := memdev.NewSSD(tb.Env, "probe", tb.Params)
	disk := memdev.NewDisk(tb.Env, "probe", tb.Params)
	res := &TiersResult{}
	page := make([]byte, 4096)
	_, err = tb.Run("probe", func(ctx context.Context, p *des.Proc) error {
		measure := func(tier string, fn func() error) error {
			start := p.Now()
			if err := fn(); err != nil {
				return fmt.Errorf("%s: %w", tier, err)
			}
			res.Rows = append(res.Rows, TierRow{Tier: tier, Latency: p.Now() - start})
			return nil
		}
		if err := measure("local DRAM", func() error {
			tb.DRAM.Access(p, 4096)
			return nil
		}); err != nil {
			return err
		}
		if err := measure("shared memory pool", func() error {
			tb.SHM.Move(p, 4096)
			return nil
		}); err != nil {
			return err
		}
		if err := vs.PutShared(1, page, 4096, 4096); err != nil {
			return err
		}
		if err := vs.PutRemote(ctx, 2, page, 4096, 4096); err != nil {
			return err
		}
		if err := measure("remote memory (RDMA)", func() error {
			return vs.GetAtInto(ctx, 2, 0, make([]byte, 4096))
		}); err != nil {
			return err
		}
		if err := measure("SSD / NVM", func() error {
			ssd.Transfer(p, 4096)
			return nil
		}); err != nil {
			return err
		}
		disk.Transfer(p, 0, 4096) // prime the head position
		if err := measure("disk (sequential)", func() error {
			disk.Transfer(p, 4096, 4096)
			return nil
		}); err != nil {
			return err
		}
		return measure("disk (random seek)", func() error {
			disk.Transfer(p, 1<<30, 4096)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the ladder.
func (r *TiersResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§VI: memory hierarchy, measured 4 KB access on the simulated testbed\n")
	base := time.Duration(0)
	for _, row := range r.Rows {
		if base == 0 {
			base = row.Latency
		}
		fmt.Fprintf(&b, "%-22s %12v  (%8.0fx DRAM)\n", row.Tier,
			row.Latency.Round(10*time.Nanosecond), float64(row.Latency)/float64(base))
	}
	return b.String()
}
