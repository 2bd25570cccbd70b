package replication

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeStore is an in-memory Store with per-node failure injection.
type fakeStore struct {
	mu       sync.Mutex
	data     map[NodeID]map[EntryID][]byte
	failPut  map[NodeID]bool
	failGet  map[NodeID]bool
	putCalls int
}

func newFakeStore() *fakeStore {
	return &fakeStore{
		data:    map[NodeID]map[EntryID][]byte{},
		failPut: map[NodeID]bool{},
		failGet: map[NodeID]bool{},
	}
}

func (f *fakeStore) Put(_ context.Context, node NodeID, id EntryID, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.putCalls++
	if f.failPut[node] {
		return fmt.Errorf("node %d unreachable", node)
	}
	if f.data[node] == nil {
		f.data[node] = map[EntryID][]byte{}
	}
	f.data[node][id] = append([]byte(nil), data...)
	return nil
}

func (f *fakeStore) Get(_ context.Context, node NodeID, id EntryID) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failGet[node] {
		return nil, fmt.Errorf("node %d unreachable", node)
	}
	d, ok := f.data[node][id]
	if !ok {
		return nil, fmt.Errorf("node %d: entry %d absent", node, id)
	}
	return append([]byte(nil), d...), nil
}

func (f *fakeStore) Delete(_ context.Context, node NodeID, id EntryID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.data[node], id)
	return nil
}

func (f *fakeStore) has(node NodeID, id EntryID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.data[node][id]
	return ok
}

var _ Store = (*fakeStore)(nil)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("expected error for nil store")
	}
	if _, err := New(newFakeStore(), WithFactor(0)); err == nil {
		t.Fatal("expected error for factor 0")
	}
	r, err := New(newFakeStore())
	if err != nil {
		t.Fatal(err)
	}
	if r.Factor() != DefaultFactor {
		t.Fatalf("Factor = %d, want %d", r.Factor(), DefaultFactor)
	}
}

func TestWriteReplicatesToAllNodes(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	if err := r.Write(ctx, nodes, 42, []byte("page")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if !st.has(n, 42) {
			t.Fatalf("node %d missing replica", n)
		}
	}
}

func TestWriteWrongNodeCount(t *testing.T) {
	ctx := context.Background()
	r, _ := New(newFakeStore())
	if err := r.Write(ctx, []NodeID{1, 2}, 1, nil); err == nil {
		t.Fatal("expected error for wrong node count")
	}
}

func TestWriteAbortsAtomically(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	st.failPut[3] = true
	r, _ := New(st)
	err := r.Write(ctx, []NodeID{1, 2, 3}, 7, []byte("x"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	// All-or-nothing: successful copies rolled back.
	for _, n := range []NodeID{1, 2, 3} {
		if st.has(n, 7) {
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
	st := newFakeStore()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	if err := r.Write(ctx, nodes, 9, []byte("data")); err != nil {
		t.Fatal(err)
	}
	st.failGet[1] = true
	st.failGet[2] = true
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
	st := newFakeStore()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	_ = r.Write(ctx, nodes, 9, []byte("data"))
	for _, n := range nodes {
		st.failGet[n] = true
	}
	_, _, err := readAll(ctx, r, nodes, 9)
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
}

func TestReadEmptyReplicaSet(t *testing.T) {
	ctx := context.Background()
	r, _ := New(newFakeStore())
	if _, _, err := readAll(ctx, r, nil, 1); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
}

func TestDeleteRemovesAllCopies(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	_ = r.Write(ctx, nodes, 5, []byte("z"))
	if err := r.Delete(ctx, nodes, 5); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if st.has(n, 5) {
			t.Fatalf("node %d still holds deleted entry", n)
		}
	}
}

func TestRepairRestoresFactor(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	if err := r.Write(ctx, nodes, 11, []byte("page11")); err != nil {
		t.Fatal(err)
	}
	// Node 2 is evicted/crashed; node 4 replaces it.
	newSet, err := r.Repair(ctx, nodes, 11, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(newSet) != 3 {
		t.Fatalf("replica set = %v, want 3 nodes", newSet)
	}
	if !st.has(4, 11) {
		t.Fatal("replacement node missing copy")
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
	st := newFakeStore()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	_ = r.Write(ctx, nodes, 1, []byte("x"))
	if _, err := r.Repair(ctx, nodes, 1, 9, 4); err == nil {
		t.Fatal("expected error for lost node outside set")
	}
}

func TestRepairReplacementAlreadyHolds(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	_ = r.Write(ctx, nodes, 1, []byte("x"))
	if _, err := r.Repair(ctx, nodes, 1, 2, 3); err == nil {
		t.Fatal("expected error for replacement already in set")
	}
}

func TestRepairWithNoSurvivingCopy(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	r, _ := New(st)
	nodes := []NodeID{1, 2, 3}
	_ = r.Write(ctx, nodes, 1, []byte("x"))
	st.failGet[1] = true
	st.failGet[3] = true
	if _, err := r.Repair(ctx, nodes, 1, 2, 4); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
}

func TestSingleFactorNoReplication(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	r, err := New(st, WithFactor(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write(ctx, []NodeID{5}, 1, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	if st.putCalls != 1 {
		t.Fatalf("putCalls = %d, want 1", st.putCalls)
	}
}

// barrierStore blocks every Put until all want puts have arrived, so a Write
// completes only if the replicator genuinely fans out concurrently.
type barrierStore struct {
	*fakeStore
	mu      sync.Mutex
	arrived int
	want    int
	ready   chan struct{}
}

func newBarrierStore(want int) *barrierStore {
	return &barrierStore{fakeStore: newFakeStore(), want: want, ready: make(chan struct{})}
}

func (b *barrierStore) Put(ctx context.Context, node NodeID, id EntryID, data []byte) error {
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
	return b.fakeStore.Put(ctx, node, id, data)
}

func TestWriteFansOutConcurrently(t *testing.T) {
	st := newBarrierStore(3)
	r, _ := New(st)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// With a serial fan-out the first Put would block forever waiting for the
	// other two and the context would expire; the parallel fan-out releases
	// the barrier.
	if err := r.Write(ctx, []NodeID{1, 2, 3}, 1, []byte("x")); err != nil {
		t.Fatalf("parallel write did not fan out: %v", err)
	}
	for _, n := range []NodeID{1, 2, 3} {
		if !st.has(n, 1) {
			t.Fatalf("node %d missing replica", n)
		}
	}
}

// exclusiveStore fails any Put that overlaps another in-flight Put, proving
// serial issue order.
type exclusiveStore struct {
	*fakeStore
	mu       sync.Mutex
	inFlight int
}

func (e *exclusiveStore) Put(ctx context.Context, node NodeID, id EntryID, data []byte) error {
	e.mu.Lock()
	e.inFlight++
	over := e.inFlight > 1
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.inFlight--
		e.mu.Unlock()
	}()
	if over {
		return fmt.Errorf("node %d: overlapping put", node)
	}
	return e.fakeStore.Put(ctx, node, id, data)
}

func TestSerialFanoutOption(t *testing.T) {
	st := &exclusiveStore{fakeStore: newFakeStore()}
	r, err := New(st, WithSerialFanout())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := r.Write(context.Background(), []NodeID{1, 2, 3}, EntryID(i), []byte("s")); err != nil {
			t.Fatalf("serial write %d: %v", i, err)
		}
	}
}

func TestWriteAttemptsAllReplicasOnFailure(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	st.failPut[1] = true // the first node fails; 2 and 3 must still be tried
	r, _ := New(st)
	err := r.Write(ctx, []NodeID{1, 2, 3}, 4, []byte("x"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if st.putCalls != 3 {
		t.Fatalf("putCalls = %d, want 3 (no short-circuit on first failure)", st.putCalls)
	}
	for _, n := range []NodeID{1, 2, 3} {
		if st.has(n, 4) {
			t.Fatalf("node %d still holds aborted entry", n)
		}
	}
}

// cancellingStore fails Puts on one node and, before failing, cancels the
// caller's context — modeling an abort caused by the caller's deadline
// expiring mid-write. Deletes refuse to run on a dead context, exactly like
// a real transport would.
type cancellingStore struct {
	*fakeStore
	failNode NodeID
	cancel   context.CancelFunc
}

func (c *cancellingStore) Put(ctx context.Context, node NodeID, id EntryID, data []byte) error {
	if node == c.failNode {
		c.cancel()
		return fmt.Errorf("node %d unreachable", node)
	}
	return c.fakeStore.Put(ctx, node, id, data)
}

func (c *cancellingStore) Delete(ctx context.Context, node NodeID, id EntryID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.fakeStore.Delete(ctx, node, id)
}

func TestRollbackRunsOnDetachedContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &cancellingStore{fakeStore: newFakeStore(), failNode: 3, cancel: cancel}
	r, _ := New(st, WithSerialFanout())
	err := r.Write(ctx, []NodeID{1, 2, 3}, 8, []byte("x"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if ctx.Err() == nil {
		t.Fatal("test store should have cancelled the caller context")
	}
	// The rollback must have run despite the dead caller context: a rollback
	// on ctx would have been refused by Delete, stranding copies on 1 and 2.
	for _, n := range []NodeID{1, 2} {
		if st.has(n, 8) {
			t.Fatalf("node %d holds a stranded copy: rollback used the cancelled caller context", n)
		}
	}
}

func TestConcurrentWrites(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	r, _ := New(st)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := EntryID(i)
			if err := r.Write(ctx, []NodeID{1, 2, 3}, id, []byte{byte(i)}); err != nil {
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
