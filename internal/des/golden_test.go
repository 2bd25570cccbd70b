package des

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The kernel's order of wake-ups is a pure function of the scenario: the file
// under testdata was recorded before Sleep gained its self-wake shortcut, so
// reproducing it byte for byte is the proof that a process which keeps running
// sees exactly the interleaving the scheduler round trip gave it. Regenerate
// (only for a deliberate change of the tie rule) with
//
//	go test ./internal/des -run KernelOrderGolden -update
var update = flag.Bool("update", false, "rewrite the kernel order golden with current output")

// kernelScenario runs one seeded scenario over everything the kernel has and
// returns one line per wake-up: simulated nanoseconds, process, step.
func kernelScenario() string {
	const us = time.Microsecond
	env := NewEnv()
	rng := rand.New(rand.NewSource(19))
	var log strings.Builder
	note := func(who, format string, args ...any) {
		fmt.Fprintf(&log, "%6d %-8s %s\n", env.Now().Nanoseconds(), who, fmt.Sprintf(format, args...))
	}
	// Delays come from a small set so equal-instant ties are the common case.
	delay := func() time.Duration { return time.Duration(rng.Intn(4)) * us }

	// Processes that sleep and yield, alone at some instants and tied at others.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("spin%d", i)
		env.Go(name, func(p *Proc) {
			for step := 0; step < 80; step++ {
				if step%5 == i {
					p.Yield()
					note(name, "yield %d", step)
					continue
				}
				d := delay()
				p.Sleep(d)
				note(name, "sleep %d +%v", step, d)
			}
		})
	}
	// A lone long sleeper: its wake is usually not the next event.
	env.Go("slow", func(p *Proc) {
		for step := 0; step < 6; step++ {
			p.Sleep(17 * us)
			note("slow", "tick %d", step)
		}
	})

	// Gate: a plain waiter, a timed waiter that is signalled, one that times
	// out, then a broadcast over late arrivals.
	g := NewGate(env, "g")
	env.Go("wait", func(p *Proc) {
		g.Wait(p)
		note("wait", "released")
		p.Sleep(2 * us)
		g.Wait(p)
		note("wait", "released again")
	})
	env.Go("timedA", func(p *Proc) {
		ok := g.WaitTimeout(p, 50*us)
		note("timedA", "signalled=%v", ok)
	})
	env.Go("timedB", func(p *Proc) {
		p.Sleep(us)
		ok := g.WaitTimeout(p, 3*us)
		note("timedB", "signalled=%v", ok)
		ok = g.WaitTimeout(p, 40*us)
		note("timedB", "second signalled=%v", ok)
	})
	env.Go("signal", func(p *Proc) {
		p.Sleep(6 * us)
		g.Signal()
		note("signal", "one")
		p.Sleep(0)
		g.Signal()
		note("signal", "two")
		p.Sleep(9 * us)
		note("signal", "broadcast over %d", g.Len())
		g.Broadcast()
	})

	// A contended resource with equal-instant hand-offs.
	r := NewResource(env, "r", 2)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("res%d", i)
		env.Go(name, func(p *Proc) {
			for round := 0; round < 3; round++ {
				n := int64(1 + (i+round)%2)
				r.Acquire(p, n)
				note(name, "acquired %d (queue %d)", n, r.QueueLen())
				p.Sleep(delay())
				r.Release(n)
				p.Sleep(delay())
			}
			note(name, "done")
		})
	}

	// A bounded store: the producer blocks on full, the consumer on empty.
	s := NewStore(env, "s", 2)
	env.Go("produce", func(p *Proc) {
		for v := 0; v < 8; v++ {
			s.Put(p, v)
			note("produce", "put %d (len %d)", v, s.Len())
			if v%3 == 2 {
				p.Sleep(5 * us)
			}
		}
	})
	env.Go("consume", func(p *Proc) {
		for v := 0; v < 8; v++ {
			got := s.Get(p)
			note("consume", "got %v", got)
			p.Sleep(delay())
		}
	})

	// A link shared by two senders.
	l := NewLink(env, "l", 3*us, 1e9)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("send%d", i)
		env.Go(name, func(p *Proc) {
			for m := 0; m < 4; m++ {
				l.Transfer(p, int64(1000*(1+m+i)))
				note(name, "delivered %d", m)
			}
		})
	}

	// Closure events: logging, signalling and spawning from scheduler context.
	for _, at := range []time.Duration{0, 4 * us, 20 * us, 20 * us, 41 * us} {
		env.After(at, func() { note("after", "fired (scheduled for %v)", at) })
	}
	env.After(30*us, func() {
		note("after", "signal from scheduler context")
		g.Signal()
		env.Go("child", func(p *Proc) {
			note("child", "started")
			p.Sleep(us)
			note("child", "done")
		})
	})
	env.GoAfter(25*us, "wait2", func(p *Proc) {
		g.Wait(p)
		note("wait2", "released")
		ok := g.WaitTimeout(p, 500*us)
		note("wait2", "signalled=%v", ok)
	})
	env.GoAfter(12*us, "late", func(p *Proc) {
		note("late", "started")
		p.Sleep(0)
		note("late", "after sleep 0")
		p.Sleep(8 * us)
		note("late", "done")
	})
	// The failure latch: everything still queued after this stays queued.
	env.GoAfter(95*us, "bomb", func(p *Proc) {
		note("bomb", "started")
		p.Sleep(us)
		panic("boom")
	})

	// Uneven horizons: on a busy instant, mid-gap, exactly on the two closures
	// at 20us, the same again (nothing left to run), on a process wake, then
	// one with little left before it, and the rest. A process is spawned from
	// outside between every two runs.
	for _, h := range []time.Duration{3 * us, 3500 * time.Nanosecond, 20 * us, 20 * us, 33 * us, 64 * us} {
		err := env.RunUntil(h)
		fmt.Fprintf(&log, "-- RunUntil(%v): now=%d err=%v\n", h, env.Now().Nanoseconds(), err)
		env.Go(fmt.Sprintf("step@%v", h), func(p *Proc) {
			p.Yield()
			note("step", "spawned between runs at %v", h)
		})
	}
	err := env.Run()
	fmt.Fprintf(&log, "-- Run: now=%d err=%v\n", env.Now().Nanoseconds(), err)
	err = env.RunUntil(200 * us)
	fmt.Fprintf(&log, "-- RunUntil after the failure: now=%d err=%v\n", env.Now().Nanoseconds(), err)
	return log.String()
}

func TestKernelOrderGolden(t *testing.T) {
	got := kernelScenario()
	path := filepath.Join("testdata", "kernel_order.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("kernel order drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	if again := kernelScenario(); again != got {
		t.Error("two runs of the scenario differ: the kernel is not deterministic")
	}
}
