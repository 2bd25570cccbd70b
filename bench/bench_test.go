package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"

	"godm/internal/tcpnet"
	"godm/internal/transport"
	"godm/internal/transport/transporttest"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if v, ok := percentile(vals, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true (10 samples lie beyond)", v, ok)
	}
	if _, ok := percentile(vals, 0.999); ok {
		t.Fatal("p999 of 1000 samples reported with only 1 sample beyond it")
	}
	if _, ok := percentile(vals[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples reported with only 9 samples beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of nothing reported")
	}
}

func TestCoverAndChain(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spans   []span
		lo, hi  int64
		covered int64
		chain   int
	}{
		{"none", nil, 0, 100, 0, 0},
		{"one", []span{{10, 30}}, 0, 100, 20, 1},
		{"three parallel", []span{{10, 30}, {12, 28}, {11, 35}}, 0, 100, 25, 1},
		{"two in series", []span{{10, 20}, {20, 40}}, 0, 100, 30, 2},
		// free x3 in parallel, then per donor alloc then write, the donors skewed
		// so one donor's write overlaps another's alloc: 9 verbs, 3 round trips.
		{"skewed fan-out", []span{
			{0, 10}, {1, 11}, {2, 12},
			{20, 30}, {30, 40},
			{22, 35}, {35, 48},
			{24, 33}, {33, 45},
		}, 0, 100, 12 + 28, 3},
		{"clipped to the call", []span{{-5, 5}, {95, 120}, {200, 300}}, 0, 100, 10, 2},
	} {
		covered, chain := coverAndChain(tc.spans, tc.lo, tc.hi)
		if covered != tc.covered || chain != tc.chain {
			t.Errorf("%s: covered %d chain %d, want %d and %d", tc.name, covered, chain, tc.covered, tc.chain)
		}
	}
}

func TestUpperQuartileIsThirdBestOfTen(t *testing.T) {
	windows := []float64{50, 91, 70, 88, 92, 60, 84, 55, 90, 65}
	if got := upperQuartile(windows, true); got != 90 {
		t.Errorf("higher-is-better: %v, want 90 (third best)", got)
	}
	if got := upperQuartile(windows, false); got != 60 {
		t.Errorf("lower-is-better: %v, want 60 (third lowest)", got)
	}
	if got := upperQuartile([]float64{math.NaN(), 7, math.NaN()}, true); got != 7 {
		t.Errorf("windows without a value must be skipped, got %v", got)
	}
	if got := upperQuartile([]float64{1, 2, 3, 4, 5}, true); got != 4 {
		t.Errorf("five windows: %v, want 4 (second best)", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) -> [3.5, 13.5, 31.0]
	vals := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	want := (31.0 - 3.5) / 13.5
	if got := spread(vals); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "get_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		spec              metricSpec
		base, cand, noise float64
		want              string
	}{
		{lower, 100, 103, 0.02, "unchanged"},
		{lower, 100, 115, 0.02, "regressed"},
		{lower, 100, 90, 0.02, "improved"},
		{lower, 100, 90, 0.12, "unresolved"},
		{higher, 100, 85, 0.02, "regressed"},
		{higher, 100, 108, 0.02, "improved"},
		{higher, 100, 101, 0.02, "unchanged"},
	} {
		if got := verdict(tc.spec, tc.base, tc.cand, tc.noise); got != tc.want {
			t.Errorf("%s %v -> %v (noise %v): %s, want %s", tc.spec.Name, tc.base, tc.cand, tc.noise, got, tc.want)
		}
	}
}

func TestPayloadCheckCatchesOneFlippedBit(t *testing.T) {
	buf := make([]byte, 4096)
	s := payloadSeed(7, entryKey(1, 42), 3)
	fillPayload(buf, s)
	if !checkPayload(buf, s) {
		t.Fatal("payload does not match itself")
	}
	buf[4095] ^= 1
	if checkPayload(buf, s) {
		t.Fatal("flipped bit not caught")
	}
	buf[4095] ^= 1
	if checkPayload(buf, payloadSeed(7, entryKey(1, 42), 4)) {
		t.Fatal("stale version not caught")
	}
}

// wrappedFabric runs transporttest's table over loopback endpoints wrapped in
// the bench's timing wrapper with tracing on.
type wrappedFabric struct{ tr *tracer }

func (f *wrappedFabric) Endpoints(t *testing.T, n int) []transport.Endpoint {
	t.Helper()
	var eps []*tcpnet.Endpoint
	for i := 0; i < n; i++ {
		ep, err := tcpnet.Listen(transport.NodeID(i+1), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		eps = append(eps, ep)
	}
	out := make([]transport.Endpoint, n)
	for i, ep := range eps {
		for _, peer := range eps {
			if peer != ep {
				ep.AddPeer(peer.ID(), peer.Addr())
			}
		}
		out[i] = transport.Chain(ep, timed(f.tr, levelOuter), timed(f.tr, levelInner))
	}
	return out
}

func (f *wrappedFabric) Run(t *testing.T, body func(ctx context.Context)) {
	body(context.Background())
}

func TestTimedEndpointConformance(t *testing.T) {
	transporttest.RunConformance(t, func(t *testing.T) transporttest.Fabric {
		tr := newTracer()
		tr.on.Store(true)
		return &wrappedFabric{tr: tr}
	})
}

// quick runs one pass at smoke size in this process.
func quick(t *testing.T, cfg runConfig) *result {
	t.Helper()
	cfg.Quick = true
	if cfg.Seconds == 0 {
		cfg.Seconds = 1.0
	}
	res, err := runOne(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	for _, p := range res.Problems {
		t.Errorf("%s: %s", cfg.Workload, p)
	}
	return res
}

// TestQuickSmoke runs every workload end to end so the harness cannot rot.
func TestQuickSmoke(t *testing.T) {
	for _, wl := range workloads {
		res := quick(t, runConfig{Workload: wl.Name, Seed: 1})
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d", wl.Name, res.Attempted, res.Failed)
		}
		for _, s := range endToEnd {
			if v := res.values[s.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, s.Name, v)
			}
		}
	}
}

// TestWrapperKeepsAllocsPerOp: tracing every window of get4k-loop must not
// change what the program allocates. A wrapper that hides the scatter-read
// capability costs one pooled copy and at least one allocation per op.
func TestWrapperKeepsAllocsPerOp(t *testing.T) {
	plain := quick(t, runConfig{Workload: "get4k-loop", Seed: 1})
	traced := quick(t, runConfig{Workload: "get4k-loop", Seed: 1, Trace: true, TraceAll: true})
	a, b := plain.values["allocs_per_op"], traced.values["allocs_per_op"]
	if math.Abs(a-b) > 0.05 {
		t.Errorf("allocs_per_op unwrapped %.3f, wrapped %.3f", a, b)
	}
	if v := traced.values["core.verbs_per_get"]; v != 1 {
		t.Errorf("core.verbs_per_get = %v, want exactly 1", v)
	}
}

func TestSameSeedSameOpSequence(t *testing.T) {
	hash := func(seed int64) float64 {
		return quick(t, runConfig{Workload: "rw64k-rtt-rf3", Seed: seed, Trace: true, Seconds: 0.6}).values["client.opseq_hash"]
	}
	a, b, c := hash(5), hash(5), hash(6)
	if a != b {
		t.Errorf("seed 5 gave op sequence hashes %v and %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 gave the same op sequence hash %v", a)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 15,
		Workloads:  workloads,
	}
	for _, s := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, e2eJSON{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		want.PerLayer = append(want.PerLayer, layerJSON{s.Name, s.Unit, s.Better})
	}
	const path = "../BENCHMARK.json"
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s is out of step with spec.go; run go test -run BenchmarkJSON -update", path)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}
