package exp

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"godm/internal/des"
	"godm/internal/pagetable"
)

// ECRow is one durability policy's cost/latency measurement.
type ECRow struct {
	// Policy is the durability spec ("rf3", "rs4.2").
	Policy string
	// StoredPerByte is donor pool bytes consumed per durable payload byte
	// (3.0 for triple replication, (k+m)/k for RS striping).
	StoredPerByte float64
	// HealthyRead is the mean simulated read latency with every donor up.
	HealthyRead time.Duration
	// DegradedRead is the mean read latency with one stripe/replica holder
	// partitioned away: replica failover for rf, reconstruct-on-read for rs.
	DegradedRead time.Duration
}

// ECResult compares triple replication against RS(4,2) erasure coding on
// the axis the paper's §IV.D fault-tolerance discussion leaves open: what a
// durable remote byte costs in donor capacity, and what the degraded read
// path costs in latency when a holder disappears.
type ECResult struct {
	Entries int
	Payload int
	Rows    []ECRow
}

// ecEntries and ecPayload size the measurement working set: enough entries
// to average placement noise out, payloads large enough that shard framing
// overhead is visible but the suite stays fast.
const (
	ecEntries = 8
	ecPayload = 64 << 10
)

// EC runs the comparison. Both systems run on identical 8-node testbeds
// (owner + 7 donors: RS(4,2) stripes across 6 and keeps a spare).
func EC(scale Scale) (*ECResult, error) {
	res := &ECResult{Entries: ecEntries, Payload: ecPayload}
	for _, policy := range []string{"rf3", "rs4.2"} {
		row, err := ecMeasure(policy, scale.Seed)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", policy, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ecMeasure builds a fresh cluster under one durability policy, stripes the
// working set, and measures capacity and read latency healthy then degraded.
func ecMeasure(policy string, seed int64) (ECRow, error) {
	row := ECRow{Policy: policy}
	tb, err := NewTestbed(TestbedConfig{NodeCount: 8, ReplicationFactor: 3, Durability: policy})
	if err != nil {
		return row, err
	}
	vs, err := tb.Nodes[0].AddServer("ec-vm", 0)
	if err != nil {
		return row, err
	}
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, ecEntries)
	for i := range payloads {
		payloads[i] = make([]byte, ecPayload)
		rng.Read(payloads[i])
	}
	_, err = tb.Run("ec-"+policy, func(ctx context.Context, p *des.Proc) error {
		for i, pay := range payloads {
			if err := vs.PutRemote(ctx, pagetable.EntryID(i), pay, ecPayload, ecPayload); err != nil {
				return fmt.Errorf("put %d: %w", i, err)
			}
		}
		var stored int64
		for _, n := range tb.Nodes[1:] {
			stored += n.RecvPool().Stats().LiveBytes
		}
		row.StoredPerByte = float64(stored) / float64(ecEntries*ecPayload)

		all := make([]int, len(payloads))
		for i := range all {
			all[i] = i
		}
		healthy, err := ecTimeReads(ctx, p, vs, payloads, all)
		if err != nil {
			return fmt.Errorf("healthy read: %w", err)
		}
		row.HealthyRead = healthy

		// Partition entry 0's primary holder away from the owner and re-read
		// every entry that kept data on it: the rf read fails over to a
		// replica, the rs read reconstructs the lost shard from parity.
		loc, err := vs.Location(0)
		if err != nil {
			return err
		}
		victim := loc.Primary
		var affected []int
		for i := range payloads {
			l, err := vs.Location(pagetable.EntryID(i))
			if err != nil {
				return err
			}
			if slices.Contains(l.Holders(), victim) {
				affected = append(affected, i)
			}
		}
		tb.Fabric.Partition(1, nodeID(victim))
		degraded, err := ecTimeReads(ctx, p, vs, payloads, affected)
		if err != nil {
			return fmt.Errorf("degraded read: %w", err)
		}
		row.DegradedRead = degraded
		return nil
	})
	return row, err
}

// ecTimeReads reads the given entries back, verifying content, and returns
// the mean per-read simulated latency.
func ecTimeReads(ctx context.Context, p *des.Proc, vs ecReader, payloads [][]byte, ids []int) (time.Duration, error) {
	start := p.Now()
	for _, i := range ids {
		got, _, err := vs.Get(ctx, pagetable.EntryID(i))
		if err != nil {
			return 0, fmt.Errorf("get %d: %w", i, err)
		}
		if !bytes.Equal(got, payloads[i]) {
			return 0, fmt.Errorf("get %d: payload mismatch", i)
		}
	}
	return (p.Now() - start) / time.Duration(len(ids)), nil
}

// ecReader is the slice of core.VirtualServer the timing loop needs.
type ecReader interface {
	Get(ctx context.Context, id pagetable.EntryID) ([]byte, pagetable.Location, error)
}

// String renders the comparison.
func (r *ECResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Erasure coding vs replication (%d entries x %d KiB)\n", r.Entries, r.Payload>>10)
	var rf, rs float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s stored/byte %.2f  healthy read %v  degraded read %v\n",
			row.Policy, row.StoredPerByte,
			row.HealthyRead.Round(time.Microsecond), row.DegradedRead.Round(time.Microsecond))
		switch {
		case strings.HasPrefix(row.Policy, "rf"):
			rf = row.StoredPerByte
		case strings.HasPrefix(row.Policy, "rs"):
			rs = row.StoredPerByte
		}
	}
	if rf > 0 && rs > 0 {
		fmt.Fprintf(&b, "capacity per durable byte: rs is %.2fx rf\n", rf/rs)
	}
	return b.String()
}
