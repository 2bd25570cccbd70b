package core

import (
	"bytes"
	"context"
	"testing"

	"godm/internal/replication"
	"godm/internal/replication/storetest"
	"godm/internal/transport"
)

// storeRig is one replication.Store under the conformance table, with the
// probes the table needs beside the contract itself.
type storeRig struct {
	store replication.Store
	// reads counts the reads that reached the fabric.
	reads func() int
	// shard reports the stripe coordinates node recorded for id.
	shard func(node replication.NodeID, id replication.EntryID) replication.Shard
	run   func(t *testing.T, body func(ctx context.Context))
}

// remoteStoreRig is the production store: node 1's remoteStore over simnet,
// its one-sided reads counted under it.
func remoteStoreRig(t *testing.T) storeRig {
	cv := &countingVerbs{}
	cv.reset(0)
	rig := newPutRig(t, "sim", 3, "rf3", func(ep transport.Endpoint) transport.Endpoint {
		cv.Endpoint = ep
		return cv
	})
	return storeRig{
		store: rig.nodes[0].remote,
		reads: func() int { return cv.reads },
		shard: func(node replication.NodeID, id replication.EntryID) replication.Shard {
			idx, k, m, _ := rig.nodes[node-1].ShardInfo(1, uint64(id))
			return replication.Shard{Idx: uint8(idx), K: uint8(k), M: uint8(m)}
		},
		run: rig.run,
	}
}

func fakeStoreRig(*testing.T) storeRig {
	fake := storetest.NewFake()
	return storeRig{
		store: fake,
		reads: func() int { return int(fake.Reads.Load()) },
		shard: func(node replication.NodeID, id replication.EntryID) replication.Shard {
			e, _ := fake.Entry(node, id)
			return e.Shard
		},
		run: func(t *testing.T, body func(ctx context.Context)) { body(context.Background()) },
	}
}

// TestStoreConformance holds the production store and the fake the policy
// tests run on to one contract: what replication.Store's comments promise,
// checked the same way against both.
func TestStoreConformance(t *testing.T) {
	const (
		node  = replication.NodeID(2)
		id    = replication.EntryID(7)
		class = 4096
	)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 3000/16+1)[:3000]
	// The bodies run as a simulated process under one rig, off the test's
	// goroutine: they report with t.Error and return.
	put := func(t *testing.T, ctx context.Context, s replication.Store, shard replication.Shard, data []byte) bool {
		t.Helper()
		err := s.Put(ctx, node, id, class, shard, data)
		if err != nil {
			t.Errorf("Put: %v", err)
		}
		return err == nil
	}
	cases := []struct {
		name string
		body func(t *testing.T, ctx context.Context, r storeRig)
	}{
		{"a put reads back whole and by range", func(t *testing.T, ctx context.Context, r storeRig) {
			if !put(t, ctx, r.store, replication.Shard{}, payload) {
				return
			}
			if n, err := r.store.Len(node, id); err != nil || n != len(payload) {
				t.Errorf("Len = %d, %v, want %d", n, err, len(payload))
			}
			for _, rg := range [][2]int{{0, len(payload)}, {100, 50}, {len(payload) - 1, 1}} {
				dst := make([]byte, rg[1])
				if err := r.store.ReadAt(ctx, node, id, rg[0], dst); err != nil || !bytes.Equal(dst, payload[rg[0]:rg[0]+rg[1]]) {
					t.Errorf("ReadAt(%d, %d bytes): differs or failed: %v", rg[0], rg[1], err)
				}
			}
		}},
		{"a range outside the payload is refused before any read", func(t *testing.T, ctx context.Context, r storeRig) {
			if !put(t, ctx, r.store, replication.Shard{}, payload) {
				return
			}
			before := r.reads()
			for _, rg := range [][2]int{{-1, 10}, {0, len(payload) + 1}, {len(payload) - 1, 2}, {len(payload) + 5, 1}} {
				if err := r.store.ReadAt(ctx, node, id, rg[0], make([]byte, rg[1])); err == nil {
					t.Errorf("ReadAt(%d, %d bytes) of a %d-byte payload succeeded", rg[0], rg[1], len(payload))
				}
			}
			if got := r.reads() - before; got != 0 {
				t.Errorf("%d reads reached the fabric for ranges the handle alone refuses", got)
			}
		}},
		{"a dst too short is refused before any donor is read", func(t *testing.T, ctx context.Context, r storeRig) {
			if !put(t, ctx, r.store, replication.Shard{}, payload) {
				return
			}
			policy, err := replication.New(r.store, replication.WithFactor(1))
			if err != nil {
				t.Error(err)
				return
			}
			before := r.reads()
			if _, _, err := policy.Read(ctx, []replication.NodeID{node}, id, make([]byte, len(payload)-1)); err == nil {
				t.Error("Read into a buffer one byte short succeeded")
			}
			if got := r.reads() - before; got != 0 {
				t.Errorf("%d reads reached the fabric before the short buffer was refused", got)
			}
		}},
		{"deleting an absent entry is not an error", func(t *testing.T, ctx context.Context, r storeRig) {
			if err := r.store.Delete(ctx, node, id); err != nil {
				t.Errorf("Delete of a never-put entry: %v", err)
			}
			if !put(t, ctx, r.store, replication.Shard{}, payload) {
				return
			}
			for i := 0; i < 2; i++ {
				if err := r.store.Delete(ctx, node, id); err != nil {
					t.Errorf("Delete #%d: %v", i+1, err)
				}
			}
			if _, err := r.store.Len(node, id); err == nil {
				t.Error("Len of a deleted entry succeeded")
			}
			if err := r.store.ReadAt(ctx, node, id, 0, make([]byte, 1)); err == nil {
				t.Error("ReadAt of a deleted entry succeeded")
			}
		}},
		{"an overwrite replaces and reports the new length", func(t *testing.T, ctx context.Context, r storeRig) {
			if !put(t, ctx, r.store, replication.Shard{}, payload) {
				return
			}
			fresh := bytes.Repeat([]byte{0xEE}, 1000)
			if !put(t, ctx, r.store, replication.Shard{}, fresh) {
				return
			}
			if n, err := r.store.Len(node, id); err != nil || n != len(fresh) {
				t.Errorf("Len after overwrite = %d, %v, want %d", n, err, len(fresh))
			}
			dst := make([]byte, len(fresh))
			if err := r.store.ReadAt(ctx, node, id, 0, dst); err != nil || !bytes.Equal(dst, fresh) {
				t.Errorf("ReadAt after overwrite: differs or failed: %v", err)
			}
			if err := r.store.ReadAt(ctx, node, id, 0, make([]byte, len(payload))); err == nil {
				t.Error("the displaced generation's length still reads")
			}
		}},
		{"a tagged put records its coordinates", func(t *testing.T, ctx context.Context, r storeRig) {
			if !put(t, ctx, r.store, replication.Shard{}, payload) {
				return
			}
			if got := r.shard(node, id); got.Tagged() {
				t.Errorf("untagged put recorded as shard %+v", got)
			}
			tag := replication.Shard{Idx: 2, K: 4, M: 2}
			if !put(t, ctx, r.store, tag, payload) {
				return
			}
			if got := r.shard(node, id); got != tag {
				t.Errorf("tagged put recorded as %+v, want %+v", got, tag)
			}
		}},
	}
	rigs := []struct {
		name string
		make func(*testing.T) storeRig
	}{{"remoteStore", remoteStoreRig}, {"fake", fakeStoreRig}}
	for _, impl := range rigs {
		for _, c := range cases {
			t.Run(impl.name+"/"+c.name, func(t *testing.T) {
				r := impl.make(t)
				r.run(t, func(ctx context.Context) { c.body(t, ctx, r) })
			})
		}
	}
}
