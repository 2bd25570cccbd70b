package replication_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"godm/internal/des"
	. "godm/internal/replication"
	"godm/internal/replication/storetest"
)

// class is the block size every test entry reserves.
const class = 4096

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("expected error for nil store")
	}
	if _, err := New(storetest.NewFake(), WithFactor(0)); err == nil {
		t.Fatal("expected error for factor 0")
	}
	r, err := New(storetest.NewFake())
	if err != nil {
		t.Fatal(err)
	}
	if r.Width() != DefaultFactor || r.Name() != "rf3" {
		t.Fatalf("default policy is %s, width %d, want rf3, width %d", r.Name(), r.Width(), DefaultFactor)
	}
}

func has(st *storetest.Fake, node NodeID, id EntryID) bool {
	_, ok := st.Entry(node, id)
	return ok
}

// pickOnly returns a PickFunc that hands out exactly the given nodes.
func pickOnly(pool ...NodeID) PickFunc {
	return func(count int, _ []NodeID) ([]NodeID, error) {
		if count > len(pool) {
			return nil, fmt.Errorf("pick: need %d, have %d", count, len(pool))
		}
		return pool[:count], nil
	}
}

func TestWriteReplicatesToAllNodes(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	if err := r.Write(ctx, nodes, 42, class, []byte("page")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if !has(st, n, 42) {
			t.Fatalf("node %d missing replica", n)
		}
	}
}

func TestWriteWrongNodeCount(t *testing.T) {
	ctx := context.Background()
	r, _ := New(storetest.NewFake())
	if err := r.Write(ctx, []NodeID{1, 2}, 1, class, nil); err == nil {
		t.Fatal("expected error for wrong node count")
	}
}

func TestWriteAbortsAtomically(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	st.Dead[3] = true
	r, _ := New(st)
	err := r.Write(ctx, []NodeID{1, 2, 3}, 7, class, []byte("x"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	// All-or-nothing: successful copies rolled back.
	for _, n := range []NodeID{1, 2, 3} {
		if has(st, n, 7) {
			t.Fatalf("node %d still holds aborted entry", n)
		}
	}
}

// readAll reads id through p into a buffer larger than any payload these
// tests write, and returns the payload.
func readAll(ctx context.Context, p Policy, nodes []NodeID, id EntryID) ([]byte, NodeID, error) {
	buf := make([]byte, 1<<12)
	n, served, err := p.Read(ctx, nodes, id, buf)
	return buf[:n], served, err
}

func TestReadFailsOverToReplicas(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	if err := r.Write(ctx, nodes, 9, class, []byte("data")); err != nil {
		t.Fatal(err)
	}
	st.Dead[1] = true
	st.Dead[2] = true
	data, servedBy, err := readAll(ctx, r, nodes, 9)
	if err != nil {
		t.Fatal(err)
	}
	if servedBy != 3 {
		t.Fatalf("servedBy = %d, want 3", servedBy)
	}
	if !bytes.Equal(data, []byte("data")) {
		t.Fatalf("data = %q", data)
	}
}

func TestReadAllReplicasDown(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	_ = r.Write(ctx, nodes, 9, class, []byte("data"))
	for _, n := range nodes {
		st.Dead[n] = true
	}
	_, _, err := readAll(ctx, r, nodes, 9)
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
}

func TestReadEmptyReplicaSet(t *testing.T) {
	ctx := context.Background()
	r, _ := New(storetest.NewFake())
	if _, _, err := readAll(ctx, r, nil, 1); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
}

func TestDeleteRemovesAllCopies(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	_ = r.Write(ctx, nodes, 5, class, []byte("z"))
	if err := r.Delete(ctx, nodes, 5); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if has(st, n, 5) {
			t.Fatalf("node %d still holds deleted entry", n)
		}
	}
}

func TestRepairRestoresFactor(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	if err := r.Write(ctx, nodes, 11, class, []byte("page11")); err != nil {
		t.Fatal(err)
	}
	// Node 2 is evicted/crashed; node 4 replaces it.
	newSet, still, err := r.Restore(ctx, nodes, 11, class, []NodeID{2}, pickOnly(4))
	if err != nil || len(still) != 0 {
		t.Fatalf("restore: still lost %v, err %v", still, err)
	}
	if len(newSet) != 3 {
		t.Fatalf("replica set = %v, want 3 nodes", newSet)
	}
	if e, ok := st.Entry(4, 11); !ok || e.Class != class {
		t.Fatalf("replacement node holds %+v, want a copy in a class-%d block", e, class)
	}
	for _, n := range newSet {
		if n == 2 {
			t.Fatalf("lost node still in set %v", newSet)
		}
	}
	// Data still readable from new set.
	data, _, err := readAll(ctx, r, newSet, 11)
	if err != nil || !bytes.Equal(data, []byte("page11")) {
		t.Fatalf("read after repair: %q, %v", data, err)
	}
}

func TestRepairLostNotInSet(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	_ = r.Write(ctx, nodes, 1, class, []byte("x"))
	// A lost donor outside the set was already handled by an earlier pass:
	// the queue entry is stale, nothing is read, picked or written.
	newSet, still, err := r.Restore(ctx, nodes, 1, class, []NodeID{9}, pickOnly())
	if err != nil || len(still) != 0 || len(newSet) != 3 || st.Puts.Load() != 3 || st.Reads.Load() != 0 {
		t.Fatalf("stale restore: set %v, still %v, err %v, %d puts, %d reads", newSet, still, err, st.Puts.Load(), st.Reads.Load())
	}
}

func TestRepairWithNoSurvivingCopy(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	_ = r.Write(ctx, nodes, 1, class, []byte("x"))
	st.Dead[1] = true
	st.Dead[3] = true
	if _, _, err := r.Restore(ctx, nodes, 1, class, []NodeID{2}, pickOnly(4)); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	if has(st, 4, 1) {
		t.Fatal("replacement holds a copy nobody could have read")
	}
}

func TestSingleFactorNoReplication(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	r, err := New(st, WithFactor(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write(ctx, []NodeID{5}, 1, class, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	if st.Puts.Load() != 1 {
		t.Fatalf("putCalls = %d, want 1", st.Puts.Load())
	}
}

// barrierStore blocks every Put until all want puts have arrived, so a Write
// completes only if the replicator genuinely fans out concurrently.
type barrierStore struct {
	*storetest.Fake
	mu      sync.Mutex
	arrived int
	want    int
	ready   chan struct{}
}

func newBarrierStore(want int) *barrierStore {
	return &barrierStore{Fake: storetest.NewFake(), want: want, ready: make(chan struct{})}
}

func (b *barrierStore) Put(ctx context.Context, node NodeID, id EntryID, class int, shard Shard, data []byte) error {
	b.mu.Lock()
	b.arrived++
	if b.arrived == b.want {
		close(b.ready)
	}
	b.mu.Unlock()
	select {
	case <-b.ready:
	case <-ctx.Done():
		return ctx.Err()
	}
	return b.Fake.Put(ctx, node, id, class, shard, data)
}

func TestWriteFansOutConcurrently(t *testing.T) {
	st := newBarrierStore(3)
	r, _ := New(st)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// With a serial fan-out the first Put would block forever waiting for the
	// other two and the context would expire; the parallel fan-out releases
	// the barrier.
	if err := r.Write(ctx, []NodeID{1, 2, 3}, 1, class, []byte("x")); err != nil {
		t.Fatalf("parallel write did not fan out: %v", err)
	}
	for _, n := range []NodeID{1, 2, 3} {
		if !has(st.Fake, n, 1) {
			t.Fatalf("node %d missing replica", n)
		}
	}
}

// exclusiveStore fails any Put that overlaps another in-flight Put and records
// the order puts arrive in, proving serial issue order.
type exclusiveStore struct {
	*storetest.Fake
	mu       sync.Mutex
	inFlight int
	order    []NodeID
}

func (e *exclusiveStore) Put(ctx context.Context, node NodeID, id EntryID, class int, shard Shard, data []byte) error {
	e.mu.Lock()
	e.inFlight++
	over := e.inFlight > 1
	e.order = append(e.order, node)
	e.mu.Unlock()
	runtime.Gosched() // give an overlapping put every chance to show up
	defer func() {
		e.mu.Lock()
		e.inFlight--
		e.mu.Unlock()
	}()
	if over {
		return fmt.Errorf("node %d: overlapping put", node)
	}
	return e.Fake.Put(ctx, node, id, class, shard, data)
}

// TestFanoutIsSerialUnderSimulation: a caller gets the serial plan the way
// production does — by running as a simulated process.
func TestFanoutIsSerialUnderSimulation(t *testing.T) {
	st := &exclusiveStore{Fake: storetest.NewFake()}
	r, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	env := des.NewEnv()
	env.Go("writer", func(p *des.Proc) {
		ctx := des.NewContext(context.Background(), p)
		for i := 0; i < 8; i++ {
			if err := r.Write(ctx, []NodeID{1, 2, 3}, EntryID(i), class, []byte("s")); err != nil {
				t.Errorf("serial write %d: %v", i, err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range st.order {
		if want := NodeID(i%3 + 1); n != want {
			t.Fatalf("put %d went to node %d, want %d: %v", i, n, want, st.order)
		}
	}
}

func TestWriteAttemptsAllReplicasOnFailure(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	st.Dead[1] = true // the first node fails; 2 and 3 must still be tried
	r, _ := New(st)
	err := r.Write(ctx, []NodeID{1, 2, 3}, 4, class, []byte("x"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if st.Puts.Load() != 3 {
		t.Fatalf("putCalls = %d, want 3 (no short-circuit on first failure)", st.Puts.Load())
	}
	for _, n := range []NodeID{1, 2, 3} {
		if has(st, n, 4) {
			t.Fatalf("node %d still holds aborted entry", n)
		}
	}
}

// cancellingStore fails Puts on one node and, before failing, cancels the
// caller's context — modeling an abort caused by the caller's deadline
// expiring mid-write. Deletes refuse to run on a dead context, exactly like
// a real transport would.
type cancellingStore struct {
	*storetest.Fake
	failNode NodeID
	cancel   context.CancelFunc
}

func (c *cancellingStore) Put(ctx context.Context, node NodeID, id EntryID, class int, shard Shard, data []byte) error {
	if node == c.failNode {
		c.cancel()
		return fmt.Errorf("node %d unreachable", node)
	}
	return c.Fake.Put(ctx, node, id, class, shard, data)
}

func (c *cancellingStore) Delete(ctx context.Context, node NodeID, id EntryID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.Fake.Delete(ctx, node, id)
}

func TestRollbackRunsOnDetachedContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &cancellingStore{Fake: storetest.NewFake(), failNode: 3, cancel: cancel}
	r, _ := New(st)
	err := r.Write(ctx, []NodeID{1, 2, 3}, 8, class, []byte("x"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if ctx.Err() == nil {
		t.Fatal("test store should have cancelled the caller context")
	}
	// The rollback must have run despite the dead caller context: a rollback
	// on ctx would have been refused by Delete, stranding copies on 1 and 2.
	for _, n := range []NodeID{1, 2} {
		if has(st.Fake, n, 8) {
			t.Fatalf("node %d holds a stranded copy: rollback used the cancelled caller context", n)
		}
	}
}

func TestConcurrentWrites(t *testing.T) {
	ctx := context.Background()
	st := storetest.NewFake()
	r, _ := New(st)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := EntryID(i)
			if err := r.Write(ctx, []NodeID{1, 2, 3}, id, class, []byte{byte(i)}); err != nil {
				t.Errorf("Write(%d): %v", id, err)
				return
			}
			data, _, err := readAll(ctx, r, []NodeID{1, 2, 3}, id)
			if err != nil || data[0] != byte(i) {
				t.Errorf("Read(%d) = %v, %v", id, data, err)
			}
		}(i)
	}
	wg.Wait()
}
