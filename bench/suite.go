package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// suiteConfig is the no-workload invocation: every workload, both passes,
// each pass in a child process of its own so max_rss_mb, GC state and
// goroutines never carry over from one workload to the next.
type suiteConfig struct {
	Seed    int64
	Seconds float64
	Quick   bool
	Repeat  int
	Out     string
	Budget  string
}

// suiteRun is one child's final line, labelled.
type suiteRun struct {
	Workload  string             `json:"workload"`
	Rep       int                `json:"rep"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// suiteFile is what -out writes and -compare reads.
type suiteFile struct {
	Env     envInfo    `json:"env"`
	Seed    int64      `json:"seed"`
	Seconds float64    `json:"seconds"`
	Runs    []suiteRun `json:"runs"`
}

// values collects one metric of one workload and pass across repetitions.
func (f *suiteFile) values(workload string, trace bool, metric string) []float64 {
	var vals []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				vals = append(vals, v)
			}
		}
	}
	return vals
}

// runChild runs one pass in a child process and parses its final line.
func runChild(self string, cfg runConfig) (finalLine, error) {
	cmd := exec.Command(self, cfg.args()...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // Output waits for the child to exit
	if err != nil {
		return finalLine{}, fmt.Errorf("%s (trace=%v): %w", cfg.Workload, cfg.Trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var f finalLine
	if err := json.Unmarshal(lines[len(lines)-1], &f); err != nil {
		return finalLine{}, fmt.Errorf("%s (trace=%v): final line: %w", cfg.Workload, cfg.Trace, err)
	}
	return f, nil
}

func runSuite(w io.Writer, sc suiteConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := suiteFile{Env: currentEnv(), Seed: sc.Seed, Seconds: sc.Seconds}
	fmt.Fprintf(w, "# godm bench suite: %s\n", describeEnv(loadClients()))
	allCorrect := true
	for rep := 0; rep < sc.Repeat; rep++ {
		order := append([]workloadSpec(nil), workloads...)
		if rep%2 == 1 { // alternate the order so position effects show as spread
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			for _, trace := range []bool{false, true} {
				cfg := runConfig{Workload: wl.Name, Seed: sc.Seed, Seconds: sc.Seconds, Trace: trace, Quick: sc.Quick}
				if trace {
					cfg.Seconds /= 2 // the traced pass is the shorter one
				}
				f, err := runChild(self, cfg)
				if err != nil {
					return err
				}
				run := suiteRun{Workload: wl.Name, Rep: rep, Trace: trace, Correct: f.Correct,
					Attempted: f.Attempted, Failed: f.Failed, Metrics: map[string]float64{}}
				for name, m := range f.Metrics {
					run.Metrics[name] = m.Value
				}
				file.Runs = append(file.Runs, run)
				allCorrect = allCorrect && f.Correct
				fmt.Fprintf(w, "# rep %d %-15s trace=%-5v correct=%v attempted=%d failed=%d\n",
					rep, wl.Name, trace, f.Correct, f.Attempted, f.Failed)
			}
		}
	}

	for _, wl := range workloads {
		fmt.Fprintf(w, "\n== %s — %s\n", wl.Name, wl.Why)
		var attempted, failed int64
		for _, r := range file.Runs {
			if r.Workload == wl.Name && !r.Trace {
				attempted += r.Attempted
				failed += r.Failed
			}
		}
		fmt.Fprintf(w, "%-38s %16.6f %-6s lower is better, any increase is a regression\n",
			"failed_ops_ratio", float64(failed)/math.Max(1, float64(attempted)), "ratio")
		for _, pass := range []struct {
			trace bool
			specs []metricSpec
		}{{false, endToEnd}, {true, perLayer}} {
			for _, s := range pass.specs {
				vals := file.values(wl.Name, pass.trace, s.Name)
				line := fmt.Sprintf("%-38s %16.4f %-6s %s is better", s.Name, median(vals), s.Unit, s.Better)
				if s.Bound > 0 {
					line += fmt.Sprintf(", bound %g%%", s.Bound*100)
				}
				if len(vals) > 1 {
					line += fmt.Sprintf(", spread %.1f%% over %d runs", 100*spread(vals), len(vals))
				}
				fmt.Fprintln(w, line)
			}
		}
	}

	if sc.Budget != "" {
		if err := os.WriteFile(sc.Budget, []byte(budgetMarkdown(&file)), 0o644); err != nil {
			return fmt.Errorf("write budget: %w", err)
		}
		fmt.Fprintf(w, "\n# wrote %s\n", sc.Budget)
	}
	if sc.Out != "" {
		b, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(sc.Out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("at least one pass was not correct")
	}
	return nil
}

// budgetMarkdown renders the per-layer budget of the three calls ROADMAP
// item 1 asks for, from the traced passes.
func budgetMarkdown(f *suiteFile) string {
	type column struct{ title, workload, op string }
	cols := []column{
		{"4 KiB Get, rf3, no RTT", "get4k-loop", "get"},
		{"64 KiB Put, rf3, 1 ms RTT", "rw64k-rtt-rf3", "put"},
		{"64 KiB Put, rs4.2, 1 ms RTT", "rw64k-rtt-rs42", "put"},
	}
	rows := []struct{ label, metric string }{
		{"call p50, µs (client)", "client.%s_p50_us"},
		{"verbs per call (core)", "core.verbs_per_%s"},
		{"serial RTTs per call (core)", "core.serial_rtts_per_%s"},
		{"self time per call, µs (core: call minus the union of its verbs)", "core.self_us_per_%s"},
		{"injected delay per verb, µs (faulty)", "faulty.delay_us_per_verb"},
		{"two-sided verb p50, µs (tcpnet)", "tcpnet.verb_us_call_p50"},
		{"one-sided write p50, µs (tcpnet)", "tcpnet.verb_us_write_p50"},
		{"one-sided read p50, µs (tcpnet)", "tcpnet.verb_us_read_p50"},
		{"wire + queues per two-sided verb, µs (tcpnet: verb minus donor handler)", "tcpnet.wire_us_per_call"},
		{"donor handler time per op, µs (core)", "core.handler_us_per_op"},
		{"donor handler calls per op (core)", "core.handler_calls_per_op"},
		{"policy writes per put (replication / ec)", "replication.writes_per_put"},
		{"encode per stripe, µs (ec probe)", "ec.encode_us_per_stripe"},
		{"alloc+write+free, ns (slab probe)", "slab.alloc_write_free_ns"},
		{"pick, ns (placement probe)", "placement.pick_ns"},
	}
	var b strings.Builder
	b.WriteString("# Per-layer budget\n\n")
	b.WriteString("Generated by the bench suite from its traced passes; do not edit by hand.\n\n")
	fmt.Fprintf(&b, "Environment: %s, GOMAXPROCS=%d, nproc=%d, git %s; %s; emulated RTT %s; %d closed-loop clients; seed %d.\n\n",
		f.Env.GoVersion, f.Env.GOMAXPROCS, f.Env.NumCPU, f.Env.GitSHA, f.Env.Fabric, f.Env.RTT, f.Env.Clients, f.Seed)
	b.WriteString("| layer figure |")
	for _, c := range cols {
		b.WriteString(" " + c.title + " |")
	}
	b.WriteString("\n|---|")
	b.WriteString(strings.Repeat("---:|", len(cols)))
	b.WriteString("\n")
	get := func(c column, metric string) float64 {
		if strings.Contains(metric, "%s") {
			metric = fmt.Sprintf(metric, c.op)
		}
		return median(f.values(c.workload, true, metric))
	}
	for _, r := range rows {
		b.WriteString("| " + r.label + " |")
		for _, c := range cols {
			fmt.Fprintf(&b, " %.1f |", get(c, r.metric))
		}
		b.WriteString("\n")
	}
	for _, p := range []struct {
		label    string
		measured bool
	}{
		{"**predicted call, µs: serial RTTs × nominal RTT**", false},
		{"**predicted call, µs: serial RTTs × (injected delay + verb p50) + core self**", true},
	} {
		b.WriteString("| " + p.label + " |")
		for _, c := range cols {
			fmt.Fprintf(&b, " %.1f |", predictedCallUs(f, c.workload, c.op, p.measured))
		}
		b.WriteString("\n")
	}
	b.WriteString("\nThe verb p50 in the second prediction is the one-sided read's for a Get and the mean of the two-sided verb's and the one-sided write's for a Put. README.md records how close each prediction comes to the measured call p50.\n")
	return b.String()
}

// predictedCallUs is the budget's sanity check: what the per-layer figures
// say one call should cost, from the nominal RTT alone or from the measured
// per-verb figures.
func predictedCallUs(f *suiteFile, workload, op string, measured bool) float64 {
	m := func(name string) float64 { return median(f.values(workload, true, name)) }
	serial := m("core.serial_rtts_per_" + op)
	if !measured {
		if m("faulty.delay_us_per_verb") < 1 {
			return 0 // no RTT is emulated on this workload
		}
		return serial * float64(emulatedRTT.Microseconds())
	}
	verb := m("tcpnet.verb_us_read_p50")
	if op == "put" {
		verb = (m("tcpnet.verb_us_call_p50") + m("tcpnet.verb_us_write_p50")) / 2
	}
	return serial*(m("faulty.delay_us_per_verb")+verb) + m("core.self_us_per_"+op)
}

// compareFiles applies each end-to-end metric's bound to two -out files.
func compareFiles(w io.Writer, basePath, candPath string) error {
	load := func(path string) (*suiteFile, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f suiteFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := load(candPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %9s %8s  %s\n", "WORKLOAD", "METRIC", "BASELINE", "CANDIDATE", "CHANGE", "SPREAD", "VERDICT")
	for _, wl := range workloads {
		for _, s := range endToEnd {
			a, b := base.values(wl.Name, false, s.Name), cand.values(wl.Name, false, s.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			noise := math.Max(spread(a), spread(b))
			fmt.Fprintf(w, "%-15s %-20s %14.4f %14.4f %+8.1f%% %7.1f%%  %s\n",
				wl.Name, s.Name, ma, mb, 100*(mb-ma)/ma, 100*noise, verdict(s, ma, mb, noise))
		}
	}
	return nil
}

// verdict classifies a candidate median against the baseline's. A metric
// whose run-to-run spread is wider than its bound cannot be called either
// way: it is unresolved, not unchanged.
func verdict(s metricSpec, base, cand, noise float64) string {
	worse := (cand - base) / base
	if s.Better == "higher" {
		worse = -worse
	}
	switch {
	case noise > s.Bound:
		return "unresolved"
	case worse > s.Bound:
		return "regressed"
	case worse < 0 && -worse > noise:
		return "improved"
	}
	return "unchanged"
}
