package des

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if env.Now() != 5*time.Millisecond {
		t.Fatalf("env.Now() = %v, want 5ms", env.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			env.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Millisecond)
					order = append(order, name)
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	first := run()
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i, v := range want {
		if first[i] != v {
			t.Fatalf("order[%d] = %q, want %q (full: %v)", i, first[i], v, first)
		}
	}
	for trial := 0; trial < 10; trial++ {
		got := run()
		for i := range want {
			if got[i] != first[i] {
				t.Fatalf("trial %d diverged at %d: %v vs %v", trial, i, got, first)
			}
		}
	}
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv()
	var at time.Duration
	env.After(7*time.Second, func() { at = env.Now() })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 7*time.Second {
		t.Fatalf("callback at %v, want 7s", at)
	}
}

func TestGoAfter(t *testing.T) {
	env := NewEnv()
	var started time.Duration
	env.GoAfter(3*time.Second, "late", func(p *Proc) { started = p.Now() })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if started != 3*time.Second {
		t.Fatalf("started at %v, want 3s", started)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			fired++
		}
	})
	if err := env.RunUntil(4500 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
	if env.Now() != 4500*time.Millisecond {
		t.Fatalf("Now = %v, want 4.5s", env.Now())
	}
	// Resuming runs the rest.
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 10 {
		t.Fatalf("fired = %d after resume, want 10", fired)
	}
}

func TestGateSignalFIFO(t *testing.T) {
	env := NewEnv()
	g := NewGate(env, "g")
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		env.Go(name, func(p *Proc) {
			g.Wait(p)
			order = append(order, name)
		})
	}
	env.Go("signaler", func(p *Proc) {
		p.Sleep(time.Millisecond)
		g.Signal()
		p.Sleep(time.Millisecond)
		g.Broadcast()
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestGateWaitTimeout(t *testing.T) {
	env := NewEnv()
	g := NewGate(env, "g")
	var timedOut, signaled bool
	env.Go("timeout", func(p *Proc) {
		if !g.WaitTimeout(p, 10*time.Millisecond) {
			timedOut = true
		}
	})
	env.Go("lucky", func(p *Proc) {
		p.Sleep(time.Millisecond) // join queue after "timeout" proc
		if g.WaitTimeout(p, time.Hour) {
			signaled = true
		}
	})
	env.Go("signaler", func(p *Proc) {
		p.Sleep(20 * time.Millisecond)
		g.Signal()
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !timedOut {
		t.Fatal("first waiter should have timed out")
	}
	if !signaled {
		t.Fatal("second waiter should have been signaled")
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	g := NewGate(env, "never")
	env.Go("stuck", func(p *Proc) { g.Wait(p) })
	err := env.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestProcPanicSurfaces(t *testing.T) {
	env := NewEnv()
	env.Go("bomb", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	err := env.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "disk", 1)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		env.Go("io", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(10 * time.Millisecond)
			r.Release(1)
			finish = append(finish, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "nic", 2)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		env.Go("io", func(p *Proc) {
			r.Use(p, 1, func() { p.Sleep(10 * time.Millisecond) })
			finish = append(finish, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceAcquireBeyondCapacityPanics(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, "small", 1)
	env.Go("greedy", func(p *Proc) { r.Acquire(p, 2) })
	if err := env.Run(); err == nil {
		t.Fatal("expected panic error for over-capacity acquire")
	}
}

func TestStoreBlocksAndCarriesValues(t *testing.T) {
	env := NewEnv()
	s := NewStore(env, "q", 2)
	var got []int
	env.Go("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			s.Put(p, i)
			p.Sleep(time.Millisecond)
		}
	})
	env.Go("consumer", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		for i := 0; i < 5; i++ {
			got = append(got, s.Get(p).(int))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range []int{1, 2, 3, 4, 5} {
		if got[i] != v {
			t.Fatalf("got = %v, want 1..5 in order", got)
		}
	}
}

func TestStoreTryGet(t *testing.T) {
	env := NewEnv()
	s := NewStore(env, "q", 0)
	if _, ok := s.TryGet(); ok {
		t.Fatal("TryGet on empty store should report false")
	}
	env.Go("producer", func(p *Proc) { s.Put(p, "x") })
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v, ok := s.TryGet()
	if !ok || v.(string) != "x" {
		t.Fatalf("TryGet = %v, %v; want x, true", v, ok)
	}
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	env := NewEnv()
	// 1 MB/s, 5 ms propagation: a 1000-byte transfer takes 1 ms on the wire
	// plus 5 ms in flight.
	l := NewLink(env, "wire", 5*time.Millisecond, 1e6)
	var finish []time.Duration
	for i := 0; i < 2; i++ {
		env.Go("xfer", func(p *Proc) {
			l.Transfer(p, 1000)
			finish = append(finish, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// First: 1ms serialize + 5ms propagate = 6ms. Second serializes behind the
	// first (starts at 1ms): 2ms + 5ms = 7ms.
	want := []time.Duration{6 * time.Millisecond, 7 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestLinkTransmitDelay(t *testing.T) {
	env := NewEnv()
	l := NewLink(env, "wire", 0, 7e9) // 7 GB/s, RDMA-class
	d := l.TransmitDelay(4096)
	if d <= 0 || d > time.Microsecond {
		t.Fatalf("4KB at 7GB/s = %v, want sub-microsecond positive", d)
	}
}

func TestNestedSpawn(t *testing.T) {
	env := NewEnv()
	var childRan bool
	env.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Env().Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
		p.Sleep(5 * time.Millisecond)
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !childRan {
		t.Fatal("child process did not run")
	}
}

func TestManyProcessesStress(t *testing.T) {
	env := NewEnv()
	const n = 500
	count := 0
	for i := 0; i < n; i++ {
		i := i
		env.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(i%17) * time.Millisecond)
			count++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func TestSignalToFinishedWaiterIsSafe(t *testing.T) {
	env := NewEnv()
	g := NewGate(env, "g")
	env.Go("w", func(p *Proc) {
		g.WaitTimeout(p, time.Millisecond)
	})
	env.Go("s", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		g.Signal() // waiter already timed out and exited
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRunUntilNeverRewindsTheClock: a horizon below the current time runs
// nothing and leaves the clock alone (it used to be set back to the horizon).
func TestRunUntilNeverRewindsTheClock(t *testing.T) {
	env := NewEnv()
	fired := false
	env.After(20*time.Millisecond, func() { fired = true })
	if err := env.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil(10ms): %v", err)
	}
	if err := env.RunUntil(5 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil(5ms): %v", err)
	}
	if env.Now() != 10*time.Millisecond || fired {
		t.Fatalf("after RunUntil(10ms), RunUntil(5ms): Now = %v (want 10ms), fired = %v", env.Now(), fired)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if env.Now() != 20*time.Millisecond || !fired {
		t.Fatalf("after Run: Now = %v (want 20ms), fired = %v", env.Now(), fired)
	}
}

// The four tests below pin the guards of Sleep's self-wake shortcut, one each.

// A queued event at the very instant of the wake was scheduled first, holds
// the lower sequence number and must run before the sleeper continues.
func TestSleepYieldsToEventAtSameInstant(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("sleeper", func(p *Proc) {
		env.After(time.Millisecond, func() { order = append(order, "closure") })
		p.Sleep(time.Millisecond)
		order = append(order, "sleeper")
		// With the closure gone the next wake is the sleeper's own.
		p.Sleep(time.Millisecond)
		order = append(order, "sleeper again")
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"closure", "sleeper", "sleeper again"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// A wake beyond the horizon parks the process: RunUntil returns with the
// clock on the horizon and the process resumes under the next run.
func TestSleepBeyondHorizonParks(t *testing.T) {
	env := NewEnv()
	var woke time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // inside the horizon, nothing else queued
		p.Sleep(10 * time.Millisecond)
		woke = p.Now()
	})
	if err := env.RunUntil(5 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if env.Now() != 5*time.Millisecond || woke != 0 {
		t.Fatalf("at the horizon: Now = %v (want 5ms), woke = %v (want not yet)", env.Now(), woke)
	}
	if len(env.events) != 1 {
		t.Fatalf("%d events queued at the horizon, want the one parked wake", len(env.events))
	}
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 12*time.Millisecond {
		t.Fatalf("woke at %v, want 12ms", woke)
	}
}

// Once a failure is latched no process moves the clock or runs on: the
// sleeper yields and the scheduler returns the failure.
func TestSleepAfterLatchedFailureDoesNotAdvance(t *testing.T) {
	env := NewEnv()
	latched := errors.New("latched")
	ranOn := false
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		env.failure = latched
		p.Sleep(time.Millisecond)
		ranOn = true
	})
	if err := env.Run(); !errors.Is(err, latched) {
		t.Fatalf("Run: %v, want the latched failure", err)
	}
	if env.Now() != time.Millisecond || ranOn {
		t.Fatalf("Now = %v (want 1ms), process ran on = %v", env.Now(), ranOn)
	}
}

// A lone process that sleeps n times pushes no event, and leaves the sequence
// counter exactly where n queued wakes would have left it, so whatever is
// scheduled afterwards breaks its ties as before.
func TestSleepAloneLeavesHeapEmptyAndSeqAdvanced(t *testing.T) {
	const n = 100
	env := NewEnv()
	var maxQueued int
	var seqBefore uint64
	env.Go("sleeper", func(p *Proc) {
		seqBefore = env.seq
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
			if len(env.events) > maxQueued {
				maxQueued = len(env.events)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxQueued != 0 {
		t.Fatalf("a lone sleeper saw %d events queued, want 0", maxQueued)
	}
	if got := env.seq - seqBefore; got != n {
		t.Fatalf("seq advanced by %d over %d sleeps, want %d", got, n, n)
	}
	if env.Now() != n*time.Microsecond {
		t.Fatalf("Now = %v, want %v", env.Now(), n*time.Microsecond)
	}
}

// BenchmarkProcessSwitch measures the scheduler's coroutine hand-off — what a
// charged latency costs whenever another process is due first. Two processes
// alternate, so every sleep finds the other's wake queued ahead of its own and
// goes through the scheduler: one op is one hand-off.
func BenchmarkProcessSwitch(b *testing.B) {
	benchSleepers(b, 2)
}

// BenchmarkSleepAlone measures a sleep whose own wake is the next event — a
// lone process charging latencies, the case nearly every sleep of the swap
// experiments is: the process keeps running and no goroutine switches.
func BenchmarkSleepAlone(b *testing.B) {
	benchSleepers(b, 1)
}

// benchSleepers splits b.N one-nanosecond sleeps over procs processes. The
// processes are started, and parked on their first sleep by a zero horizon,
// before the timer: a goroutine's stack is set-up, not a cost per sleep.
func benchSleepers(b *testing.B, procs int) {
	env := NewEnv()
	for i := 0; i < procs; i++ {
		env.Go(fmt.Sprintf("bench%d", i), func(p *Proc) {
			for i := 0; i < b.N/procs; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
	}
	if err := env.RunUntil(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventHeap measures raw event scheduling throughput.
func BenchmarkEventHeap(b *testing.B) {
	env := NewEnv()
	for i := 0; i < b.N; i++ {
		env.After(time.Duration(i%1000)*time.Microsecond, func() {})
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
