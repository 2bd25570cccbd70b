package des

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestEachIsConcurrentOutsideTheSimulation: every position waits for all the
// others to have started, which only a concurrent fan-out can satisfy.
func TestEachIsConcurrentOutsideTheSimulation(t *testing.T) {
	const n = 4
	var started sync.WaitGroup
	started.Add(n)
	ran := make([]bool, n)
	done := make(chan struct{})
	go func() {
		Each(context.Background(), n, func(i int) error {
			started.Done()
			started.Wait()
			ran[i] = true
			return nil
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Each outside the simulation ran its positions one after another")
	}
	for i, ok := range ran {
		if !ok {
			t.Errorf("position %d never ran", i)
		}
	}
}

// TestEachIsSerialUnderSimulation: a simulated process runs every position
// itself, in index order, on its own goroutine — Sleep would deadlock the
// kernel from any other.
func TestEachIsSerialUnderSimulation(t *testing.T) {
	if Simulated(context.Background()) {
		t.Fatal("a plain context reports a simulated process")
	}
	env := NewEnv()
	var order []int
	env.Go("fan", func(p *Proc) {
		ctx := NewContext(context.Background(), p)
		if !Simulated(ctx) {
			t.Error("a process context does not report its process")
		}
		errs := Each(ctx, 5, func(i int) error {
			p.Sleep(time.Microsecond)
			order = append(order, i)
			if i == 1 {
				return errors.New("position 1 fails")
			}
			return nil
		})
		for i, err := range errs {
			if (err != nil) != (i == 1) {
				t.Errorf("position %d reported %v", i, err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 positions", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("positions ran in order %v", order)
		}
	}
	if env.Now() != 5*time.Microsecond {
		t.Errorf("five serial 1 µs sleeps took %v of simulated time", env.Now())
	}
}
