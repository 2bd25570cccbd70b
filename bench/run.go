package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one invocation: one workload, one pass.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // measured time, split into windows
	Trace    bool    // traced pass: per-layer metrics instead of end-to-end
	TraceAll bool    // trace every window instead of every other one
	Quick    bool    // smoke sizes: small populations, short warm-up, one set-up
}

// maxSetupReps caps how often a cheap set-up is repeated.
const maxSetupReps = 7

// shape is the run's timing plan, derived from runConfig.
type shape struct {
	warmup    time.Duration
	windows   int
	window    time.Duration
	setupReps int
}

func (c runConfig) shape() shape {
	s := shape{warmup: 2 * time.Second, windows: 10, setupReps: 3}
	if c.Quick {
		s = shape{warmup: 200 * time.Millisecond, windows: 4, setupReps: 1}
	}
	s.window = time.Duration(c.Seconds * float64(time.Second) / float64(s.windows))
	return s
}

// workload is what one named workload supplies to the common runner.
type workload interface {
	// clients is how many load-generating goroutines the workload uses.
	clients() int
	// verbs says whether the workload's calls issue transport verbs the
	// tracer's wrappers see; without them there is no span arithmetic to do.
	verbs() bool
	// setup builds the rig and pre-populates it; its wall time is setup_s.
	setup(tr *tracer) error
	// begin is called once, just before load starts (counter baselines).
	begin()
	// loop is one client's closed loop: one call outstanding, next issued
	// when the previous returns, until c.running() is false.
	loop(c *client)
	// finish checks the end state and fills the workload's metrics.
	finish(res *result, t totals)
	// teardown stops everything setup started.
	teardown()
}

type opKind int

const (
	opGet opKind = iota
	opPut
	opOther // calls that move no entry (DeleteAll); timed into no percentile
)

// tracedSums accumulates the span arithmetic of one call kind.
type tracedSums struct {
	calls, verbs, chain int64
	selfNs              int64
}

// client is one load generator's state and log. Slot 0 of every per-window
// slice is the warm-up; slots 1..N are the measured windows.
type client struct {
	idx int
	m   *measurement
	ctx context.Context
	rec *callRec
	rng *rng
	seq opSeq

	lat    [2][][]uint32 // [get|put][window] call durations, ns
	ops    []int64       // entries moved successfully
	failed []int64       // entries that errored or read back wrong
	traced [2]tracedSums

	firstErr error // the first failed call, reported with the result
}

// measurement is the clock shared by the clients and the coordinator.
type measurement struct {
	sh      shape
	cfg     runConfig
	tr      *tracer
	window  atomic.Int32 // 0 warm-up, 1..N measured, N+1 stop
	clients []*client
}

func (c *client) running() bool { return int(c.m.window.Load()) <= c.m.sh.windows }

// slot is the log slot of the current window; a call that finishes after
// the bell counts in the last window.
func (c *client) slot() int {
	return min(int(c.m.window.Load()), c.m.sh.windows)
}

// timed runs one API call, times it, and logs it as entries entries of the
// given kind. It reports whether the call succeeded; the caller verifies the
// bytes and reports bad ones through wrong.
func (c *client) timed(kind opKind, entries int, call func(ctx context.Context) error) bool {
	tr := c.m.tr
	tracing := c.rec != nil && tr.on.Load()
	var start int64
	var t0 time.Time
	if tracing {
		c.rec.begin()
		start = tr.now()
	} else {
		t0 = time.Now()
	}
	err := call(c.ctx)
	var d time.Duration
	if tracing {
		end := tr.now()
		d = time.Duration(end - start)
		spans := c.rec.end()
		// A call that straddles the switch-off has lost verbs; leave it out
		// so verbs and chain per call stay exact.
		if kind < opOther && tr.on.Load() {
			covered, chain := coverAndChain(spans, start, end)
			s := &c.traced[kind]
			s.calls++
			s.verbs += int64(len(spans))
			s.chain += int64(chain)
			s.selfNs += int64(d) - covered
		}
	} else {
		d = time.Since(t0)
	}
	w := c.slot()
	if err != nil {
		c.failed[w] += int64(entries)
		if c.firstErr == nil {
			c.firstErr = err
		}
		return false
	}
	c.ops[w] += int64(entries)
	if kind < opOther {
		ns := d.Nanoseconds()
		if ns > math.MaxUint32 {
			ns = math.MaxUint32
		}
		c.lat[kind][w] = append(c.lat[kind][w], uint32(ns))
	}
	return true
}

// wrong moves n entries of the window just logged from good to failed.
func (c *client) wrong(n int) {
	w := c.slot()
	c.ops[w] -= int64(n)
	c.failed[w] += int64(n)
}

// boundary is what the coordinator reads at each window edge.
type boundary struct {
	at  time.Time
	cpu time.Duration // user+sys of the whole process: owner and donors
}

func readBoundary() boundary {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return boundary{at: time.Now(), cpu: tvDur(ru.Utime) + tvDur(ru.Stime)}
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totals is what the common runner hands a workload's finish.
type totals struct {
	gets, puts  int64 // successful calls, warm-up included
	ops         int64 // entries moved, warm-up included
	measuredOps int64
}

// drive runs the workload's clients through warm-up and the measured
// windows, then has summarise fill the metrics every workload shares.
func drive(cfg runConfig, wl workload, tr *tracer, res *result) totals {
	sh := cfg.shape()
	m := &measurement{sh: sh, cfg: cfg, tr: tr}
	res.clients = wl.clients()
	for i := 0; i < wl.clients(); i++ {
		c := &client{idx: i, m: m, ctx: context.Background(), rng: newRNG(cfg.Seed, i)}
		if tr != nil && wl.verbs() {
			c.rec = &callRec{spans: make([]span, 0, 64)}
			c.ctx = withCallRec(c.ctx, c.rec)
		}
		for k := range c.lat {
			c.lat[k] = make([][]uint32, sh.windows+1)
		}
		c.ops = make([]int64, sh.windows+1)
		c.failed = make([]int64, sh.windows+1)
		m.clients = append(m.clients, c)
	}

	wl.begin()
	var wg sync.WaitGroup
	for _, c := range m.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			wl.loop(c)
		}(c)
	}

	// The coordinator only sleeps, flips the window index and reads the
	// process's CPU clock at each edge; clients never wait for it.
	time.Sleep(sh.warmup)
	runtime.GC() // start every run's measured part from a collected heap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	edges := make([]boundary, sh.windows+1)
	edges[0] = readBoundary()
	for w := 1; w <= sh.windows; w++ {
		if tr != nil {
			tr.on.Store(cfg.TraceAll || w%2 == 0)
		}
		m.window.Store(int32(w))
		time.Sleep(time.Until(edges[0].at.Add(time.Duration(w) * sh.window)))
		edges[w] = readBoundary()
	}
	m.window.Store(int32(sh.windows + 1))
	if tr != nil {
		tr.on.Store(false)
	}
	runtime.ReadMemStats(&ms1)
	wg.Wait()
	res.set("max_rss_mb", maxRSSMiB())
	return summarise(m, edges, &ms0, &ms1, res)
}

// summarise turns the clients' logs and the coordinator's readings into
// metrics. It fills every figure it can, whichever pass this is; the pass
// decides which are printed.
func summarise(m *measurement, edges []boundary, ms0, ms1 *runtime.MemStats, res *result) totals {
	sh, cfg, tr := m.sh, m.cfg, m.tr
	var t totals
	rate := make([]float64, sh.windows)
	cpu := make([]float64, sh.windows)
	p50 := make([]float64, sh.windows)
	for w := 1; w <= sh.windows; w++ {
		var ops int64
		var gets []float64
		for _, c := range m.clients {
			ops += c.ops[w]
			for _, ns := range c.lat[opGet][w] {
				gets = append(gets, float64(ns)/1e3)
			}
		}
		secs := edges[w].at.Sub(edges[w-1].at).Seconds()
		t.measuredOps += ops
		rate[w-1], cpu[w-1], p50[w-1] = math.NaN(), math.NaN(), math.NaN()
		if ops > 0 {
			rate[w-1] = float64(ops) / secs
			cpu[w-1] = float64(edges[w].cpu-edges[w-1].cpu) / 1e3 / float64(ops)
		}
		if len(gets) > 0 {
			p50[w-1] = median(gets)
		}
	}
	var all [2][]float64
	seqs := make([]*opSeq, len(m.clients))
	for i, c := range m.clients {
		if c.firstErr != nil {
			res.problem("client %d: first failed call: %v", i, c.firstErr)
		}
		seqs[i] = &c.seq
		for w := 0; w <= sh.windows; w++ {
			res.Attempted += c.ops[w] + c.failed[w]
			res.Failed += c.failed[w]
			t.ops += c.ops[w]
			t.gets += int64(len(c.lat[opGet][w]))
			t.puts += int64(len(c.lat[opPut][w]))
			if w == 0 {
				continue
			}
			for k := range all {
				for _, ns := range c.lat[k][w] {
					all[k] = append(all[k], float64(ns)/1e3)
				}
			}
		}
	}

	res.note("window ops_per_s %.0f", rate)
	res.note("window cpu_us_per_op %.2f", cpu)
	res.note("window get_p50_us %.1f", p50)
	res.set("ops_per_s", upperQuartile(rate, true))
	res.set("get_p50_us", upperQuartile(p50, false))
	if t.measuredOps > 0 {
		res.set("allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(t.measuredOps))
		res.set("alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(t.measuredOps))
	}

	// The generator's own records and, when traced, the span arithmetic.
	for k, name := range []string{"get", "put"} {
		sort.Float64s(all[k])
		res.set("client.samples_"+name, float64(len(all[k])))
		if len(all[k]) > 0 {
			res.set("client."+name+"_p50_us", all[k][len(all[k])/2])
		}
		if v, ok := percentile(all[k], 0.99); ok {
			res.set("client."+name+"_p99_us", v)
		}
		if v, ok := percentile(all[k], 0.999); ok {
			res.set("client."+name+"_p999_us", v)
		}
		var s tracedSums
		for _, c := range m.clients {
			s.calls += c.traced[k].calls
			s.verbs += c.traced[k].verbs
			s.chain += c.traced[k].chain
			s.selfNs += c.traced[k].selfNs
		}
		if s.calls > 0 {
			n := float64(s.calls)
			res.set("core.self_us_per_"+name, float64(s.selfNs)/1e3/n)
			res.set("core.verbs_per_"+name, float64(s.verbs)/n)
			res.set("core.serial_rtts_per_"+name, float64(s.chain)/n)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	var off, on, cpuOff []float64
	for w, r := range rate {
		if math.IsNaN(r) {
			continue
		}
		lo, hi = math.Min(lo, r), math.Max(hi, r)
		if (w+1)%2 == 0 {
			on = append(on, r)
		} else {
			off = append(off, r)
			cpuOff = append(cpuOff, cpu[w])
		}
	}
	if tr == nil || cfg.TraceAll {
		cpuOff = cpu
	}
	res.set("runtime.cpu_us_per_op", upperQuartile(cpuOff, false))
	if !math.IsInf(lo, 0) {
		res.set("client.window_ops_per_s_min", lo)
		res.set("client.window_ops_per_s_max", hi)
	}
	if tr != nil && !cfg.TraceAll && len(on) > 0 && len(off) > 0 {
		// Traced and untraced windows alternate within this one process, so
		// host drift hits both alike.
		res.set("client.trace_overhead_pct", 100*(1-median(on)/median(off)))
	}
	res.set("client.opseq_hash", float64(hashOpSeqs(seqs)))
	res.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	res.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	res.set("runtime.heap_inuse_mb", float64(ms1.HeapInuse)/(1<<20))
	if tr != nil {
		res.set("core.background_verbs", float64(tr.background.Load()))
	}
	return t
}

// timeSetup builds and tears down the workload's rig once and returns how
// long the set-up took.
func timeSetup(cfg runConfig) (float64, error) {
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	wl, err := newWorkload(cfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = wl.setup(tr)
	secs := time.Since(start).Seconds()
	wl.teardown()
	return secs, err
}

// setupInChild runs timeSetup in a child process (-setup-only) and waits
// for it.
func setupInChild(cfg runConfig) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, append(cfg.args(), "-setup-only")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// args is the command line that reproduces cfg in a child process.
func (c runConfig) args() []string {
	trace := "0"
	if c.Trace {
		trace = "1"
	}
	args := []string{
		"-workload", c.Workload,
		"-seed", strconv.FormatInt(c.Seed, 10),
		"-seconds", strconv.FormatFloat(c.Seconds, 'g', -1, 64),
		"-trace", trace,
	}
	if c.Quick {
		args = append(args, "-quick")
	}
	return args
}

// runOne executes cfg end to end: set-up, load, end-state checks, teardown,
// then the extra set-ups setup_s is the floor of.
func runOne(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	baseline := runtime.NumGoroutine()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	sh := cfg.shape()

	wl, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := wl.setup(tr); err != nil {
		wl.teardown()
		return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
	}
	setups := []float64{time.Since(start).Seconds()}

	t := drive(cfg, wl, tr, res)
	wl.finish(res, t)
	wl.teardown()

	// Leak check: every goroutine the cluster started must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	goroutines := runtime.NumGoroutine()
	res.set("runtime.goroutines_end", float64(goroutines))
	if goroutines > baseline {
		res.problem("%d goroutines at exit, %d before the cluster started", goroutines, baseline)
	}

	// Repeat the set-up in fresh child processes and report the fastest.
	// What disturbs a set-up here is one-sided and comes in spells lasting
	// many seconds (the same work takes 0.09 s or 0.17 s on rw64k-rtt-rf3,
	// back-to-back repeats all landing in one mode), so the median of the
	// repeats follows the host's mood while their floor repeats within a few
	// percent — and still moves by whatever work a change adds to set-up.
	// Repeats made in this process would meet a grown heap and recycled,
	// re-zeroed pools. Cheap set-ups are repeated more often.
	for total := setups[0]; len(setups) < sh.setupReps || (sh.setupReps > 1 && len(setups) < maxSetupReps && total < 1); {
		secs, err := setupInChild(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: repeated set-up: %w", cfg.Workload, err)
		}
		setups = append(setups, secs)
		total += secs
	}
	res.note("set-ups, s: %.4f", setups)
	res.set("setup_s", slices.Min(setups))

	if t.measuredOps == 0 {
		res.problem("no op completed in the measured windows")
	}
	if res.Failed > 0 {
		res.problem("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return res, nil
}
