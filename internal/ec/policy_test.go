package ec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"godm/internal/replication"
	"godm/internal/replication/storetest"
)

// class is the entry size class every test stripe is written with.
const class = 8192

func pickFrom(pool ...replication.NodeID) replication.PickFunc {
	return func(count int, exclude []replication.NodeID) ([]replication.NodeID, error) {
		skip := map[replication.NodeID]bool{}
		for _, e := range exclude {
			skip[e] = true
		}
		var out []replication.NodeID
		for _, p := range pool {
			if len(out) == count {
				break
			}
			if !skip[p] {
				out = append(out, p)
			}
		}
		if len(out) < count {
			return nil, fmt.Errorf("pick: need %d, have %d", count, len(out))
		}
		return out, nil
	}
}

// readAll reads id through p into a buffer larger than any payload these
// tests write, and returns the payload.
func readAll(ctx context.Context, p *CodingPolicy, nodes []replication.NodeID, id replication.EntryID) ([]byte, replication.NodeID, error) {
	buf := make([]byte, 1<<16)
	n, served, err := p.Read(ctx, nodes, id, buf)
	return buf[:n], served, err
}

func TestPolicyWriteReadDelete(t *testing.T) {
	ctx := context.Background()
	store := storetest.NewFake()
	p, err := NewPolicy(4, 2, store)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "rs4.2" || p.Width() != 6 {
		t.Fatalf("policy identity: %s width %d", p.Name(), p.Width())
	}
	if got := p.ShardClass(4096); got != 1024 {
		t.Fatalf("ShardClass(4096) = %d, want 1024", got)
	}
	nodes := []replication.NodeID{1, 2, 3, 4, 5, 6}
	data := make([]byte, 3000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := p.Write(ctx, nodes, 7, class, data); err != nil {
		t.Fatal(err)
	}
	// Every donor holds its shard at its position, in a per-shard block.
	for i, n := range nodes {
		e, ok := store.Entry(n, 7)
		if !ok {
			t.Fatalf("node %d holds no shard", n)
		}
		if want := (replication.Shard{Idx: uint8(i), K: 4, M: 2}); e.Shard != want || e.Class != class/4 {
			t.Fatalf("node %d holds shard %+v in a class-%d block, want %+v in class %d", n, e.Shard, e.Class, want, class/4)
		}
	}
	got, primary, err := readAll(ctx, p, nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	if primary != 1 || !bytes.Equal(got, data) {
		t.Fatalf("read back differs (primary %d)", primary)
	}
	if _, _, err := p.Read(ctx, nodes, 7, make([]byte, len(data)-1)); err == nil {
		t.Fatal("Read into a buffer one byte short of the payload succeeded")
	}
	// Sub-range reads, including ranges crossing shard boundaries.
	for _, r := range [][2]int{{0, 10}, {700, 200}, {749, 2}, {0, 3000}, {2999, 1}, {100, 0}} {
		part := make([]byte, r[1])
		err := p.ReadAt(ctx, nodes, 7, r[0], part)
		if err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", r[0], r[1], err)
		}
		if !bytes.Equal(part, data[r[0]:r[0]+r[1]]) {
			t.Fatalf("ReadAt(%d,%d) differs", r[0], r[1])
		}
	}
	if err := p.ReadAt(ctx, nodes, 7, 2999, make([]byte, 2)); err == nil {
		t.Fatal("out-of-range ReadAt succeeded")
	}
	if err := p.Delete(ctx, nodes, 7); err != nil {
		t.Fatal(err)
	}
	if n := store.Entries(); n != 0 {
		t.Fatalf("%d shards survive delete", n)
	}
	if _, _, err := readAll(ctx, p, nodes, 7); !errors.Is(err, replication.ErrNoReplica) {
		t.Fatalf("read after delete: %v, want ErrNoReplica", err)
	}
}

func TestPolicyWriteAbortRollsBack(t *testing.T) {
	store := storetest.NewFake()
	p, _ := NewPolicy(2, 1, store)
	store.PutErr[3] = errors.New("no space")
	err := p.Write(context.Background(), []replication.NodeID{1, 2, 3}, 9, class, []byte("hello world"))
	if !errors.Is(err, replication.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if n := store.Entries(); n != 0 {
		t.Fatalf("%d shards stranded after aborted write", n)
	}
}

func TestPolicyDegradedRead(t *testing.T) {
	ctx := context.Background()
	store := storetest.NewFake()
	p, _ := NewPolicy(4, 2, store)
	nodes := []replication.NodeID{1, 2, 3, 4, 5, 6}
	data := make([]byte, 5000)
	rand.New(rand.NewSource(2)).Read(data)
	if err := p.Write(ctx, nodes, 1, class, data); err != nil {
		t.Fatal(err)
	}
	store.Dead[2] = true
	store.Dead[4] = true // two dead donors: exactly m losses
	got, _, err := readAll(ctx, p, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read differs")
	}
	store.Dead[1] = true // third loss: unrecoverable
	if _, _, err := readAll(ctx, p, nodes, 1); !errors.Is(err, replication.ErrNoReplica) {
		t.Fatalf("read past tolerance: %v, want ErrNoReplica", err)
	}
}

func TestPolicyRestore(t *testing.T) {
	store := storetest.NewFake()
	p, _ := NewPolicy(4, 2, store)
	nodes := []replication.NodeID{1, 2, 3, 4, 5, 6}
	data := make([]byte, 2048)
	rand.New(rand.NewSource(3)).Read(data)
	ctx := context.Background()
	if err := p.Write(ctx, nodes, 5, class, data); err != nil {
		t.Fatal(err)
	}
	// Donors 2 and 5 die (one data, one parity shard).
	store.Dead[2], store.Dead[5] = true, true
	newSet, still, err := p.Restore(ctx, nodes, 5, class, []replication.NodeID{2, 5}, pickFrom(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(still) != 0 {
		t.Fatalf("stillLost = %v, want none", still)
	}
	want := []replication.NodeID{1, 7, 3, 4, 8, 6}
	for i := range want {
		if newSet[i] != want[i] {
			t.Fatalf("newSet = %v, want %v", newSet, want)
		}
	}
	// Replacements hold byte-identical shards at the original positions.
	for i, n := range newSet {
		if e, _ := store.Entry(n, 5); int(e.Shard.Idx) != i || e.Class != class/4 {
			t.Fatalf("node %d hosts shard %d in a class-%d block, want shard %d in class %d", n, e.Shard.Idx, e.Class, i, class/4)
		}
	}
	got, _, err := readAll(ctx, p, newSet, 5)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after restore: %v", err)
	}
}

// TestPolicyRestorePartial: when only one replacement exists for two lost
// shards, Restore must place what it can and report the remainder as
// stillLost — the requeue accounting the maintenance loop depends on.
func TestPolicyRestorePartial(t *testing.T) {
	store := storetest.NewFake()
	p, _ := NewPolicy(4, 2, store)
	nodes := []replication.NodeID{1, 2, 3, 4, 5, 6}
	data := make([]byte, 2048)
	rand.New(rand.NewSource(4)).Read(data)
	ctx := context.Background()
	if err := p.Write(ctx, nodes, 6, class, data); err != nil {
		t.Fatal(err)
	}
	store.Dead[1], store.Dead[6] = true, true
	newSet, still, err := p.Restore(ctx, nodes, 6, class, []replication.NodeID{1, 6}, pickFrom(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(still) != 1 || still[0] != 6 {
		t.Fatalf("stillLost = %v, want [6]", still)
	}
	if newSet[0] != 9 || newSet[5] != 6 {
		t.Fatalf("newSet = %v: restored position should be 9, unrestored keeps 6", newSet)
	}
	// A later pass with capacity finishes the job.
	newSet2, still2, err := p.Restore(ctx, newSet, 6, class, []replication.NodeID{6}, pickFrom(10))
	if err != nil || len(still2) != 0 {
		t.Fatalf("second pass: still %v err %v", still2, err)
	}
	got, _, err := readAll(ctx, p, newSet2, 6)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after staged restore: %v", err)
	}
}

// TestPolicyRestoreStaleLost: a queue entry whose lost donor is no longer in
// the stripe map (an earlier pass already replaced it) is a clean no-op, not
// an error loop.
func TestPolicyRestoreStaleLost(t *testing.T) {
	store := storetest.NewFake()
	p, _ := NewPolicy(2, 1, store)
	nodes := []replication.NodeID{1, 2, 3}
	if err := p.Write(context.Background(), nodes, 8, class, []byte("some payload")); err != nil {
		t.Fatal(err)
	}
	newSet, still, err := p.Restore(context.Background(), nodes, 8, class, []replication.NodeID{42}, pickFrom(9))
	if err != nil || len(still) != 0 {
		t.Fatalf("stale restore: still %v err %v", still, err)
	}
	for i := range nodes {
		if newSet[i] != nodes[i] {
			t.Fatalf("stale restore mutated the set: %v", newSet)
		}
	}
}

// TestPolicyRestoreTooFewSurvivors: below k survivors the restore fails
// without progress and without fabricating shards.
func TestPolicyRestoreTooFewSurvivors(t *testing.T) {
	store := storetest.NewFake()
	p, _ := NewPolicy(4, 2, store)
	nodes := []replication.NodeID{1, 2, 3, 4, 5, 6}
	data := make([]byte, 1024)
	rand.New(rand.NewSource(5)).Read(data)
	if err := p.Write(context.Background(), nodes, 2, class, data); err != nil {
		t.Fatal(err)
	}
	for _, n := range []replication.NodeID{1, 2, 3} {
		store.Dead[n] = true
	}
	_, _, err := p.Restore(context.Background(), nodes, 2, class, []replication.NodeID{1, 2, 3}, pickFrom(7, 8, 9))
	if !errors.Is(err, ErrShortShards) {
		t.Fatalf("err = %v, want ErrShortShards", err)
	}
}
