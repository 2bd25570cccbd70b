// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel provides a virtual clock, lightweight process coroutines, and
// simulation-time synchronization primitives (gates, FIFO resources, stores,
// and bandwidth links). Every benchmark in this repository that reports a
// "completion time" runs on this kernel, so results are reproducible across
// machines: simulated time advances only through explicit event scheduling,
// and simultaneous events are ordered by a monotonically increasing sequence
// number.
//
// Processes are ordinary goroutines synchronized with the scheduler through a
// single run token: exactly one process (or the scheduler) executes at any
// moment, which means process bodies may touch shared simulation state
// without locks.
//
// Two rules keep that hand-off skippable when it would change nothing (see
// Proc.Sleep). A closure event that dispatches a process — the ones GoAfter,
// Gate.Signal, Gate.WaitTimeout and Resource.Release schedule — does so as
// its last act, so when the process yields, control falls straight back into
// the scheduler loop with no closure code left to run. And every wake takes
// its sequence number from Env.seq whether or not an event is pushed for it,
// so ties at one instant break the same way on either route.
package des

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrDeadlock is returned by Run when no events remain but one or more
// processes are still blocked on a Gate, Resource, or Store.
var ErrDeadlock = errors.New("des: deadlock: blocked processes remain")

// event is one scheduled occurrence. Most events carry a closure in fn; wake
// events (a process sleeping) instead carry the process to dispatch in proc,
// so a queued sleep costs no allocation: the event rides by value in the
// heap's backing array.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	proc *Proc
}

type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // drop fn/proc references so the vacated slot pins nothing
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// Env is a simulation environment. The zero value is not usable; construct
// with NewEnv.
type Env struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	// horizon is the bound of the RunUntil in progress (negative: none),
	// published for Sleep's self-wake shortcut.
	horizon time.Duration
	yield   chan struct{}
	live    int
	blocked map[*Proc]string
	failure error
	running bool
}

// NewEnv returns an empty simulation environment positioned at time zero.
func NewEnv() *Env {
	return &Env{
		yield:   make(chan struct{}),
		blocked: map[*Proc]string{},
	}
}

// Now reports the current simulated time.
func (e *Env) Now() time.Duration { return e.now }

// schedule enqueues fn to run at absolute simulated time at.
func (e *Env) schedule(at time.Duration, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// scheduleWake enqueues a closure-free wake of p at absolute time at; the
// scheduler dispatches p directly when the event fires.
func (e *Env) scheduleWake(at time.Duration, p *Proc) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p})
}

// After schedules fn to run after delay d of simulated time. fn executes in
// scheduler context and must not block; use Go for blocking work.
func (e *Env) After(d time.Duration, fn func()) {
	e.schedule(e.now+d, fn)
}

// Proc is a simulation process. A Proc's methods must only be called from
// within the process's own body function.
type Proc struct {
	env  *Env
	name string
	wake chan struct{}
	done bool
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Go spawns a new process at the current simulated time.
func (e *Env) Go(name string, body func(p *Proc)) {
	e.GoAfter(0, name, body)
}

// GoAfter spawns a new process after delay d of simulated time.
func (e *Env) GoAfter(d time.Duration, name string, body func(p *Proc)) {
	p := &Proc{env: e, name: name, wake: make(chan struct{})}
	e.live++
	e.schedule(e.now+d, func() {
		go p.run(body)
		<-e.yield
	})
}

func (p *Proc) run(body func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if p.env.failure == nil {
				p.env.failure = fmt.Errorf("des: process %q panicked: %v", p.name, r)
			}
		}
		p.done = true
		p.env.live--
		p.env.yield <- struct{}{}
	}()
	body(p)
}

// pause hands the run token back to the scheduler and blocks until the
// scheduler wakes this process again.
func (p *Proc) pause() {
	p.env.yield <- struct{}{}
	<-p.wake
}

// dispatch wakes proc p and blocks the scheduler until p yields again.
func (e *Env) dispatch(p *Proc) {
	p.wake <- struct{}{}
	<-e.yield
}

// Sleep suspends the process for d of simulated time.
//
// When the process's own wake is the event the scheduler would pop next, the
// process keeps running instead of bouncing through it: nothing queued fires
// at or before the wake (strictly later only — a queued event at the same
// instant holds the lower sequence number and must run first), the wake lies
// inside the current RunUntil horizon, and no failure is latched. Sleep then
// does what the scheduler was about to do with the event — take the next
// sequence number, move the clock to the wake — and returns, without pushing
// an event or switching goroutines. Every other sleep queues its wake and
// yields. The two are indistinguishable to the simulation because a closure
// that dispatches a process does so last (package comment): between this
// process yielding and the scheduler popping its wake, nothing else runs.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	at := e.now + d
	if (len(e.events) == 0 || e.events[0].at > at) &&
		(e.horizon < 0 || at <= e.horizon) && e.failure == nil {
		e.seq++
		e.now = at
		return
	}
	e.scheduleWake(at, p)
	p.pause()
}

// Yield suspends the process until all other events scheduled for the current
// instant have run.
func (p *Proc) Yield() { p.Sleep(0) }

// Run drives the simulation until the event queue drains or a process
// panics. It returns ErrDeadlock (wrapped with the blocked process names) if
// blocked processes remain, or the panic error if a process panicked.
func (e *Env) Run() error { return e.RunUntil(-1) }

// RunUntil drives the simulation until the event queue drains or the next
// event lies beyond horizon; events at the horizon itself still run, later
// ones remain queued and the clock stops at the horizon. A negative horizon
// means no limit. The clock never moves backwards: a horizon below the
// current time runs nothing and leaves Now where it was.
func (e *Env) RunUntil(horizon time.Duration) error {
	if e.running {
		return errors.New("des: Run called reentrantly")
	}
	e.running = true
	e.horizon = horizon
	defer func() { e.running = false }()
	for len(e.events) > 0 {
		if e.failure != nil {
			return e.failure
		}
		next := e.events[0]
		if horizon >= 0 && next.at > horizon {
			if horizon > e.now {
				e.now = horizon
			}
			return nil
		}
		e.events.pop()
		e.now = next.at
		if next.proc != nil {
			if !next.proc.done {
				e.dispatch(next.proc)
			}
			continue
		}
		next.fn()
	}
	if e.failure != nil {
		return e.failure
	}
	if e.live > 0 {
		names := make([]string, 0, len(e.blocked))
		for _, n := range e.blocked {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("%w: %d live, blocked: %v", ErrDeadlock, e.live, names)
	}
	return nil
}

// Gate is a simulation-time condition variable: processes Wait on it and are
// released in FIFO order by Signal or Broadcast. The zero value is unusable;
// construct with NewGate.
type Gate struct {
	env     *Env
	name    string
	waiters []*gateWaiter
}

type gateWaiter struct {
	p        *Proc
	signaled bool
	timedOut bool
}

// NewGate returns a named gate bound to env.
func NewGate(env *Env, name string) *Gate {
	return &Gate{env: env, name: name}
}

// Wait blocks the process until Signal or Broadcast releases it.
func (g *Gate) Wait(p *Proc) {
	w := &gateWaiter{p: p}
	g.waiters = append(g.waiters, w)
	g.env.blocked[p] = p.name + "@" + g.name
	p.pause()
	delete(g.env.blocked, p)
}

// WaitTimeout blocks the process until released or until d elapses. It
// reports whether the process was released by a signal (true) as opposed to
// timing out (false).
func (g *Gate) WaitTimeout(p *Proc, d time.Duration) bool {
	w := &gateWaiter{p: p}
	g.waiters = append(g.waiters, w)
	g.env.blocked[p] = p.name + "@" + g.name
	g.env.schedule(g.env.now+d, func() {
		if w.signaled || w.timedOut {
			return
		}
		w.timedOut = true
		g.remove(w)
		g.env.dispatch(p)
	})
	p.pause()
	delete(g.env.blocked, p)
	return w.signaled
}

func (g *Gate) remove(target *gateWaiter) {
	for i, w := range g.waiters {
		if w == target {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}

// Signal releases the oldest waiter, if any. It may be called from process or
// scheduler context.
func (g *Gate) Signal() {
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		if w.timedOut {
			continue
		}
		w.signaled = true
		g.env.schedule(g.env.now, func() {
			if w.p.done {
				return
			}
			g.env.dispatch(w.p)
		})
		return
	}
}

// Broadcast releases all current waiters in FIFO order.
func (g *Gate) Broadcast() {
	n := len(g.waiters)
	for i := 0; i < n; i++ {
		g.Signal()
	}
}

// Len reports the number of processes currently waiting.
func (g *Gate) Len() int { return len(g.waiters) }

// Resource is a counting resource with FIFO admission, modelling contended
// hardware such as a disk head or a NIC engine.
type Resource struct {
	env      *Env
	name     string
	capacity int64
	avail    int64
	waiters  []*resWaiter
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource returns a resource with the given capacity (must be positive).
func NewResource(env *Env, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{env: env, name: name, capacity: capacity, avail: capacity}
}

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// Available returns the currently unclaimed capacity.
func (r *Resource) Available() int64 { return r.avail }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Acquire claims n units, blocking in FIFO order until they are available.
// n must not exceed capacity.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n > r.capacity {
		panic(fmt.Sprintf("des: acquire %d exceeds capacity %d of %s", n, r.capacity, r.name))
	}
	if len(r.waiters) == 0 && r.avail >= n {
		r.avail -= n
		return
	}
	r.waiters = append(r.waiters, &resWaiter{p: p, n: n})
	r.env.blocked[p] = p.name + "@" + r.name
	p.pause()
	delete(r.env.blocked, p)
}

// Release returns n units and grants queued acquirers in FIFO order.
func (r *Resource) Release(n int64) {
	r.avail += n
	if r.avail > r.capacity {
		r.avail = r.capacity
	}
	for len(r.waiters) > 0 && r.avail >= r.waiters[0].n {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.avail -= w.n
		r.env.schedule(r.env.now, func() {
			if w.p.done {
				return
			}
			r.env.dispatch(w.p)
		})
	}
}

// Use acquires n units, runs fn, and releases, charging fn's simulated
// duration to the caller.
func (r *Resource) Use(p *Proc, n int64, fn func()) {
	r.Acquire(p, n)
	defer r.Release(n)
	fn()
}

// Store is a bounded FIFO queue carrying values between processes in
// simulated time (a simulation-time channel).
type Store struct {
	env      *Env
	name     string
	capacity int
	items    []any
	putGate  *Gate
	getGate  *Gate
}

// NewStore returns a store with the given capacity; capacity <= 0 means
// unbounded.
func NewStore(env *Env, name string, capacity int) *Store {
	return &Store{
		env:      env,
		name:     name,
		capacity: capacity,
		putGate:  NewGate(env, name+".put"),
		getGate:  NewGate(env, name+".get"),
	}
}

// Len reports the number of queued items.
func (s *Store) Len() int { return len(s.items) }

// Put appends v, blocking while the store is full.
func (s *Store) Put(p *Proc, v any) {
	for s.capacity > 0 && len(s.items) >= s.capacity {
		s.putGate.Wait(p)
	}
	s.items = append(s.items, v)
	s.getGate.Signal()
}

// Get removes and returns the oldest item, blocking while the store is empty.
func (s *Store) Get(p *Proc) any {
	for len(s.items) == 0 {
		s.getGate.Wait(p)
	}
	v := s.items[0]
	s.items = s.items[1:]
	s.putGate.Signal()
	return v
}

// TryGet removes and returns the oldest item without blocking. The second
// result reports whether an item was available.
func (s *Store) TryGet() (any, bool) {
	if len(s.items) == 0 {
		return nil, false
	}
	v := s.items[0]
	s.items = s.items[1:]
	s.putGate.Signal()
	return v, true
}

// Link models a serialized transmission medium with fixed propagation latency
// and finite bandwidth. Transfers serialize on the medium (FIFO) for their
// transmission delay; propagation overlaps with subsequent transfers.
type Link struct {
	env         *Env
	name        string
	latency     time.Duration
	bytesPerSec float64
	medium      *Resource
}

// NewLink returns a link with the given one-way propagation latency and
// bandwidth in bytes per second (must be positive).
func NewLink(env *Env, name string, latency time.Duration, bytesPerSec float64) *Link {
	if bytesPerSec <= 0 {
		panic("des: link bandwidth must be positive")
	}
	return &Link{
		env:         env,
		name:        name,
		latency:     latency,
		bytesPerSec: bytesPerSec,
		medium:      NewResource(env, name+".medium", 1),
	}
}

// TransmitDelay returns the serialization delay for a payload of n bytes.
func (l *Link) TransmitDelay(n int64) time.Duration {
	return time.Duration(float64(n) / l.bytesPerSec * float64(time.Second))
}

// Transfer moves n bytes across the link, charging serialization plus
// propagation to the calling process.
func (l *Link) Transfer(p *Proc, n int64) {
	l.medium.Acquire(p, 1)
	p.Sleep(l.TransmitDelay(n))
	l.medium.Release(1)
	p.Sleep(l.latency)
}

// Latency returns the configured one-way propagation latency.
func (l *Link) Latency() time.Duration { return l.latency }
