package core

import (
	"bytes"
	"context"
	"testing"

	"godm/internal/des"
	"godm/internal/transport"
)

// TestRangedReadIsCounted: a ranged read is the same read a whole one is, so
// one GetAtInto of a remote entry shows in everything a GetInto shows in — the
// node's remote_gets, the remote-get latency histogram, the "get" objective
// and the replicator's reads — and, with the primary cut off, in its
// read_failovers too.
func TestRangedReadIsCounted(t *testing.T) {
	gate := &readGate{}
	rig := newPutRig(t, "sim", 4, "rf3", func(ep transport.Endpoint) transport.Endpoint {
		gate.Endpoint = ep
		return gate
	})
	owner := rig.nodes[0]
	vs, err := owner.AddServer("vm0", 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := ecPayload(4096, 7)
	type reading struct{ gets, latencies, objective, reads, failovers int64 }
	read := func() reading {
		slo, _ := owner.SLOs().Get("get")
		return reading{
			gets:      owner.Metrics().Counter("remote_gets").Value(),
			latencies: owner.Metrics().Histogram("remote_get_latency").Count(),
			objective: slo.Histogram().Count(),
			reads:     owner.ReplicationMetrics().Counter("reads").Value(),
			failovers: owner.ReplicationMetrics().Counter("read_failovers").Value(),
		}
	}
	rig.run(t, func(ctx context.Context) {
		if err := vs.PutRemote(ctx, 1, payload, 4096, 4096); err != nil {
			t.Fatalf("PutRemote: %v", err)
		}
		dst := make([]byte, 1000)
		before := read()
		if err := vs.GetAtInto(ctx, 1, 500, dst); err != nil {
			t.Fatalf("GetAtInto: %v", err)
		}
		if !bytes.Equal(dst, payload[500:1500]) {
			t.Error("GetAtInto returned the wrong range")
		}
		if got, want := read(), (reading{before.gets + 1, before.latencies + 1, before.objective + 1, before.reads + 1, before.failovers}); got != want {
			t.Errorf("after one ranged read: %+v, want %+v", got, want)
		}

		loc, err := vs.Location(1)
		if err != nil {
			t.Fatal(err)
		}
		gate.kill(transport.NodeID(loc.Primary))
		before = read()
		if err := vs.GetAtInto(ctx, 1, 500, dst); err != nil {
			t.Fatalf("GetAtInto with the primary cut off: %v", err)
		}
		if !bytes.Equal(dst, payload[500:1500]) {
			t.Error("the failed-over GetAtInto returned the wrong range")
		}
		if got, want := read(), (reading{before.gets + 1, before.latencies + 1, before.objective + 1, before.reads + 1, before.failovers + 1}); got != want {
			t.Errorf("after one failed-over ranged read: %+v, want %+v", got, want)
		}
	})
}

// TestReadAllocatesNothing: GetInto and GetAtInto of an entry in remote memory
// under rf3, and of one in the shared pool, allocate nothing over simnet — the
// location's holder list goes to the policy as it is, and no annotation boxes
// its value on the untraced path.
func TestReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	tc := newTestCluster(t, 4, smallConfig)
	vs, err := tc.nodes[0].AddServer("vm0", 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := ecPayload(4096, 9)
	tc.run(t, func(ctx context.Context, _ *des.Proc) {
		// Entry ids of 256 and up: what boxing one would cost shows.
		if err := vs.PutRemote(ctx, 1000, payload, 4096, 4096); err != nil {
			t.Fatalf("PutRemote: %v", err)
		}
		if err := vs.PutShared(1001, payload, 4096, 4096); err != nil {
			t.Fatalf("PutShared: %v", err)
		}
		whole, part := make([]byte, 4096), make([]byte, 1000)
		for _, tc := range []struct {
			name      string
			dst, want []byte
			read      func() error
		}{
			{"GetInto, remote", whole, payload, func() error { _, _, err := vs.GetInto(ctx, 1000, whole); return err }},
			{"GetAtInto, remote", part, payload[500:1500], func() error { return vs.GetAtInto(ctx, 1000, 500, part) }},
			{"GetInto, shared", whole, payload, func() error { _, _, err := vs.GetInto(ctx, 1001, whole); return err }},
			{"GetAtInto, shared", part, payload[500:1500], func() error { return vs.GetAtInto(ctx, 1001, 500, part) }},
		} {
			clear(tc.dst)
			allocs := testing.AllocsPerRun(100, func() {
				if err := tc.read(); err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
			})
			if allocs > 0 {
				t.Errorf("%s allocates %.1f objects, want 0", tc.name, allocs)
			}
			if !bytes.Equal(tc.dst, tc.want) {
				t.Errorf("%s returned the wrong bytes", tc.name)
			}
		}
	})
}

// BenchmarkRemoteGetInto is one read of a 4 KiB entry in remote memory under
// rf3 over simnet, into the caller's buffer — the read under every swap-in.
// scripts/alloc_budget.sh holds it to 0 B/op.
func BenchmarkRemoteGetInto(b *testing.B) {
	tc := newTestCluster(b, 4, smallConfig)
	vs, err := tc.nodes[0].AddServer("vm0", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	tc.run(b, func(ctx context.Context, _ *des.Proc) {
		if err := vs.PutRemote(ctx, 1000, ecPayload(4096, 9), 4096, 4096); err != nil {
			b.Errorf("PutRemote: %v", err)
			return
		}
		dst := make([]byte, 4096)
		b.ResetTimer()
		defer b.StopTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := vs.GetInto(ctx, 1000, dst); err != nil {
				b.Errorf("GetInto: %v", err)
				return
			}
		}
	})
}
