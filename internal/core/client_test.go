package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"godm/internal/cluster"
	"godm/internal/des"
	"godm/internal/faulty"
	"godm/internal/tcpnet"
	"godm/internal/transport"
)

func TestClientPutGetDeleteOverSimFabric(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	// A client rides node 1's endpoint to use node 2's donated pool.
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		free, err := client.Stats(ctx, 2)
		if err != nil {
			t.Errorf("Stats: %v", err)
			return
		}
		if free != 1<<20 {
			t.Errorf("free = %d, want 1 MiB", free)
		}
		data := bytes.Repeat([]byte{0x77}, 2048)
		if err := client.Put(ctx, 2, 5, data); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		got, err := client.Get(ctx, 2, 5)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get = %v, %v", len(got), err)
			return
		}
		if err := client.Delete(ctx, 2, 5); err != nil {
			t.Errorf("Delete: %v", err)
			return
		}
		// Idempotent delete and missing-key get.
		if err := client.Delete(ctx, 2, 5); err != nil {
			t.Errorf("second Delete: %v", err)
		}
		if _, err := client.Get(ctx, 2, 5); err == nil {
			t.Error("Get after delete should fail")
		}
	})
}

func TestClientTinyPayloadUsesMinimumClass(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 1, []byte("x")); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		got, err := client.Get(ctx, 2, 1)
		if err != nil || string(got) != "x" {
			t.Errorf("Get = %q, %v", got, err)
		}
	})
	// The host stored it in a 512-byte minimum class.
	if st := tc.nodes[1].RecvPool().Stats(); st.LiveBytes != 512 {
		t.Fatalf("LiveBytes = %d, want 512", st.LiveBytes)
	}
}

func TestClientPutToFullNode(t *testing.T) {
	tc := newTestCluster(t, 2, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.RecvPoolBytes = 4096
		return cfg
	})
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 1, make([]byte, 4096)); err != nil {
			t.Errorf("first Put: %v", err)
			return
		}
		if err := client.Put(ctx, 2, 2, make([]byte, 4096)); err == nil {
			t.Error("expected error for full node")
		}
	})
}

// TestClientOverwriteFreesDisplacedBlock is the regression test for the
// overwrite leak: re-putting a key used to strand the old block forever.
func TestClientOverwriteFreesDisplacedBlock(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 1, make([]byte, 2048)); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		// Larger payload: forces a fresh allocation and must free the old
		// 2048-byte block.
		big := bytes.Repeat([]byte{0xAB}, 4096)
		if err := client.Put(ctx, 2, 1, big); err != nil {
			t.Errorf("re-Put: %v", err)
			return
		}
		got, err := client.Get(ctx, 2, 1)
		if err != nil || !bytes.Equal(got, big) {
			t.Errorf("Get after grow = %d bytes, %v", len(got), err)
		}
	})
	if st := tc.nodes[1].RecvPool().Stats(); st.LiveBytes != 4096 {
		t.Fatalf("LiveBytes = %d, want 4096 (displaced block leaked)", st.LiveBytes)
	}
}

// TestClientShrinkingOverwriteFreesTheBigBlock: a re-put whose payload would
// fit the old block still parks a fresh one, sized for the new payload, and
// frees the old.
func TestClientShrinkingOverwriteFreesTheBigBlock(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 1, bytes.Repeat([]byte{1}, 4096)); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		small := bytes.Repeat([]byte{2}, 100)
		if err := client.Put(ctx, 2, 1, small); err != nil {
			t.Errorf("re-Put: %v", err)
			return
		}
		got, err := client.Get(ctx, 2, 1)
		if err != nil || !bytes.Equal(got, small) {
			t.Errorf("Get after shrink = %d bytes, %v", len(got), err)
		}
	})
	if st := tc.nodes[1].RecvPool().Stats(); st.LiveBytes != minEntryClass {
		t.Fatalf("LiveBytes = %d, want %d: the 4096-byte block freed, one minimum-class block parked", st.LiveBytes, minEntryClass)
	}
}

// TestFailedOverwriteIsNeverTorn: an overwrite that dies in flight fails with
// no effect, so the previous version reads back whole — never a prefix of the
// new version spliced onto the old.
func TestFailedOverwriteIsNeverTorn(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	inj := faulty.New(7)
	inj.AddRule(faulty.Rule{Kind: faulty.KindTruncate, Verb: faulty.VerbAny,
		From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100})
	inj.SetEnabled(false)
	client := NewClient(inj.Wrap(tc.nodes[0].ep))
	old := bytes.Repeat([]byte{0xA}, 1024)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 1, old); err != nil {
			t.Errorf("seed Put: %v", err)
			return
		}
		inj.SetEnabled(true)
		if err := client.Put(ctx, 2, 1, bytes.Repeat([]byte{0xB}, len(old))); err == nil {
			t.Error("an overwrite whose every verb is truncated succeeded")
			return
		}
		inj.SetEnabled(false)
		got, err := client.Get(ctx, 2, 1)
		if err != nil || !bytes.Equal(got, old) {
			t.Errorf("Get after the failed overwrite = %d bytes, %d of them the new version's, %v; want the previous version whole",
				len(got), bytes.Count(got, []byte{0xB}), err)
		}
	})
	if st := tc.nodes[1].RecvPool().Stats(); st.LiveBytes != int64(len(old)) {
		t.Fatalf("LiveBytes = %d after the failed overwrite, want %d", st.LiveBytes, len(old))
	}
}

// xorshift fills buf with deterministic incompressible bytes.
func xorshift(seed uint64, buf []byte) {
	s := seed
	for i := range buf {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		buf[i] = byte(s)
	}
}

func TestClientCompressionRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep, WithCompression(0))
	compressible := bytes.Repeat([]byte("memory disaggregation "), 200) // ~4.4 KiB
	incompressible := make([]byte, 4096)
	xorshift(42, incompressible)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 1, compressible); err != nil {
			t.Errorf("Put compressible: %v", err)
			return
		}
		if err := client.Put(ctx, 2, 2, incompressible); err != nil {
			t.Errorf("Put incompressible: %v", err)
			return
		}
		got, err := client.Get(ctx, 2, 1)
		if err != nil || !bytes.Equal(got, compressible) {
			t.Errorf("Get compressible = %d bytes, %v", len(got), err)
		}
		got, err = client.Get(ctx, 2, 2)
		if err != nil || !bytes.Equal(got, incompressible) {
			t.Errorf("Get incompressible = %d bytes, %v", len(got), err)
		}
	})
	// The compressible entry rests in a class strictly below its raw size;
	// the incompressible one rests raw at exactly 4096.
	st := tc.nodes[1].RecvPool().Stats()
	if st.LiveBytes >= int64(len(compressible))+4096 {
		t.Fatalf("LiveBytes = %d: compression never engaged", st.LiveBytes)
	}
	if st.LiveBytes < 4096+512 {
		t.Fatalf("LiveBytes = %d: suspiciously small", st.LiveBytes)
	}
}

func TestClientBatchRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	const n = 16
	entries := make([]Entry, n)
	for i := range entries {
		data := make([]byte, 1024)
		xorshift(uint64(i+1), data)
		entries[i] = Entry{Key: uint64(i + 1), Data: data}
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.PutAll(ctx, 2, entries); err != nil {
			t.Errorf("PutAll: %v", err)
			return
		}
		got, err := client.GetAll(ctx, 2, keys)
		if err != nil {
			t.Errorf("GetAll: %v", err)
			return
		}
		for _, e := range entries {
			if !bytes.Equal(got[e.Key], e.Data) {
				t.Errorf("key %d: round trip mismatch", e.Key)
			}
		}
		// Single-key Get sees batch-parked entries too.
		one, err := client.Get(ctx, 2, 3)
		if err != nil || !bytes.Equal(one, entries[2].Data) {
			t.Errorf("Get(3) = %d bytes, %v", len(one), err)
		}
		// Overwrite the whole window: displaced blocks must be freed.
		for i := range entries {
			fresh := make([]byte, 1024)
			xorshift(uint64(100+i), fresh)
			entries[i].Data = fresh
		}
		if err := client.PutAll(ctx, 2, entries); err != nil {
			t.Errorf("second PutAll: %v", err)
			return
		}
		got, err = client.GetAll(ctx, 2, keys)
		if err != nil {
			t.Errorf("GetAll after overwrite: %v", err)
			return
		}
		for _, e := range entries {
			if !bytes.Equal(got[e.Key], e.Data) {
				t.Errorf("key %d: overwrite mismatch", e.Key)
			}
		}
		if err := client.DeleteAll(ctx, 2, keys); err != nil {
			t.Errorf("DeleteAll: %v", err)
		}
	})
	if st := tc.nodes[1].RecvPool().Stats(); st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after DeleteAll, want 0", st.LiveBytes)
	}
}

func TestPutAllRejectsDuplicateKeys(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		err := client.PutAll(ctx, 2, []Entry{{Key: 1, Data: []byte("a")}, {Key: 1, Data: []byte("b")}})
		if err == nil {
			t.Error("duplicate keys should fail")
		}
		// In a window of any size, and the error names the key.
		many := []Entry{{Key: 300}, {Key: 900}, {Key: 300}}
		for k := uint64(0); k < 100; k++ {
			many = append(many, Entry{Key: k})
		}
		if err := client.PutAll(ctx, 2, many); err == nil || !strings.Contains(err.Error(), "duplicate key 300 ") {
			t.Errorf("PutAll of a window repeating key 300: %v", err)
		}
	})
}

// TestPutAllNoSpaceIsAtomic asks for a window bigger than the pool: the
// batch alloc must fail as a unit and reserve nothing.
func TestPutAllNoSpaceIsAtomic(t *testing.T) {
	tc := newTestCluster(t, 2, func(id transport.NodeID) Config {
		cfg := smallConfig(id)
		cfg.RecvPoolBytes = 8192
		return cfg
	})
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		entries := make([]Entry, 4)
		for i := range entries {
			entries[i] = Entry{Key: uint64(i + 1), Data: make([]byte, 4096)}
		}
		if err := client.PutAll(ctx, 2, entries); !errors.Is(err, ErrRemoteFull) {
			t.Errorf("PutAll err = %v, want ErrRemoteFull", err)
		}
	})
	if st := tc.nodes[1].RecvPool().Stats(); st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after failed batch alloc, want 0", st.LiveBytes)
	}
}

// TestPutAllFailureKeepsPreviousVersions drops the batch's put call: nothing
// is parked, and the previous version of every key — whose release would
// have ridden that call — stays readable.
func TestPutAllFailureKeepsPreviousVersions(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	inj := faulty.New(7)
	inj.AddRule(faulty.Rule{Kind: faulty.KindDrop, Verb: faulty.VerbCall,
		From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100})
	inj.SetEnabled(false)
	client := NewClient(inj.Wrap(tc.nodes[0].ep))
	old := bytes.Repeat([]byte{0x55}, 1024)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		if err := client.Put(ctx, 2, 1, old); err != nil {
			t.Errorf("seed Put: %v", err)
			return
		}
		inj.SetEnabled(true)
		entries := []Entry{
			{Key: 1, Data: bytes.Repeat([]byte{0x66}, 1024)},
			{Key: 2, Data: bytes.Repeat([]byte{0x77}, 1024)},
		}
		if err := client.PutAll(ctx, 2, entries); err == nil {
			t.Error("PutAll should fail when its put is dropped")
			return
		}
		inj.SetEnabled(false)
		// The old version of key 1 survived; key 2 never appeared.
		got, err := client.Get(ctx, 2, 1)
		if err != nil || !bytes.Equal(got, old) {
			t.Errorf("Get(1) after failed batch = %d bytes, %v", len(got), err)
		}
		if _, err := client.Get(ctx, 2, 2); err == nil {
			t.Error("Get(2) should fail: key 2 was never committed")
		}
	})
	// Only key 1's original block remains; the aborted batch parked nothing.
	if st := tc.nodes[1].RecvPool().Stats(); st.LiveBytes != 1024 {
		t.Fatalf("LiveBytes = %d after failed batch, want 1024", st.LiveBytes)
	}
}

func TestWindowFlushesWhenFull(t *testing.T) {
	tc := newTestCluster(t, 2, smallConfig)
	client := NewClient(tc.nodes[0].ep)
	tc.run(t, func(ctx context.Context, p *des.Proc) {
		w, err := client.NewWindow(2, 4, 0)
		if err != nil {
			t.Errorf("NewWindow: %v", err)
			return
		}
		for i := uint64(1); i <= 3; i++ {
			if err := w.Put(ctx, i, []byte{byte(i)}); err != nil {
				t.Errorf("stage %d: %v", i, err)
				return
			}
		}
		if w.Len() != 3 {
			t.Errorf("Len = %d, want 3 (window not yet full)", w.Len())
		}
		if _, err := client.Get(ctx, 2, 1); err == nil {
			t.Error("staged entry should not be remotely readable before flush")
		}
		// Fourth entry fills the window and flushes synchronously.
		if err := w.Put(ctx, 4, []byte{4}); err != nil {
			t.Errorf("filling Put: %v", err)
			return
		}
		if w.Len() != 0 {
			t.Errorf("Len = %d after flush, want 0", w.Len())
		}
		for i := uint64(1); i <= 4; i++ {
			got, err := client.Get(ctx, 2, i)
			if err != nil || len(got) != 1 || got[0] != byte(i) {
				t.Errorf("Get(%d) = %v, %v", i, got, err)
			}
		}
		// Explicit flush of a partial window.
		if err := w.Put(ctx, 5, []byte{5}); err != nil {
			t.Errorf("stage 5: %v", err)
			return
		}
		if err := w.Flush(ctx); err != nil {
			t.Errorf("Flush: %v", err)
			return
		}
		if got, err := client.Get(ctx, 2, 5); err != nil || got[0] != 5 {
			t.Errorf("Get(5) = %v, %v", got, err)
		}
	})
}

// TestWindowTimerFlushOverTCP exercises the wall-clock flush timer against a
// real loopback node (the timer cannot run on simulated time).
func TestWindowTimerFlushOverTCP(t *testing.T) {
	server, err := tcpnet.Listen(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	dir, err := cluster.NewDirectory(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(Config{
		ID: 2, SharedPoolBytes: 1 << 20, SendPoolBytes: 1 << 20,
		RecvPoolBytes: 1 << 20, SlabSize: 1 << 20, ReplicationFactor: 1,
	}, server, dir); err != nil {
		t.Fatal(err)
	}
	clientEP, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = clientEP.Close() })
	clientEP.AddPeer(2, server.Addr())

	ctx := context.Background()
	client := NewClient(clientEP)
	w, err := client.NewWindow(2, 100, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(ctx, 1, []byte("timer")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("timer flush never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := client.Get(ctx, 2, 1)
	if err != nil || string(got) != "timer" {
		t.Fatalf("Get after timer flush = %q, %v", got, err)
	}
}
