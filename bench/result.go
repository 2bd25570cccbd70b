package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// result is one pass of one workload.
type result struct {
	cfg       runConfig
	Attempted int64
	Failed    int64
	Problems  []string // why the run is not correct; empty means correct
	Notes     []string // per-window and per-repeat raw figures, printed as comments
	values    map[string]float64
	clients   int // load-generating goroutines the workload used
}

func newResult(cfg runConfig) *result {
	return &result{cfg: cfg, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// specs is the metric set this pass reports: end-to-end untraced, per-layer
// traced.
func (r *result) specs() []metricSpec {
	if r.cfg.Trace {
		return perLayer
	}
	return endToEnd
}

// metricValue is one entry of the final line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the machine-readable last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) final() finalLine {
	f := finalLine{
		Correct:   len(r.Problems) == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range r.specs() {
		f.Metrics[s.Name] = metricValue{Value: r.values[s.Name], Unit: s.Unit}
	}
	return f
}

// print writes the human-readable table and then the final JSON line.
func (r *result) print(w io.Writer) error {
	pass := "untraced pass (end-to-end metrics)"
	if r.cfg.Trace {
		pass = "traced pass (per-layer metrics)"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g: %s\n", r.cfg.Workload, r.cfg.Seed, r.cfg.Seconds, pass)
	fmt.Fprintf(w, "# %s\n", describeEnv(r.clients))
	for _, s := range r.specs() {
		line := fmt.Sprintf("%-38s %16.4f %-6s %s is better", s.Name, r.values[s.Name], s.Unit, s.Better)
		if s.Bound > 0 {
			line += fmt.Sprintf(", regression beyond %g%%", s.Bound*100)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# INCORRECT: %s\n", p)
	}
	out, err := json.Marshal(r.final())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// envInfo is recorded with every result: the numbers mean nothing without it.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GitSHA     string `json:"git_sha"`
	Fabric     string `json:"fabric"`
	RTT        string `json:"emulated_rtt"`
	Clients    int    `json:"clients"`
}

func currentEnv() envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitSHA:     gitSHA(),
		Fabric:     "tcpnet on 127.0.0.1 (loopback, not a real link); swap-sim on the simulated fabric",
		RTT:        emulatedRTT.String() + " on the -rtt workloads, none elsewhere",
		Clients:    loadClients(),
	}
}

func describeEnv(clients int) string {
	e := currentEnv()
	e.Clients = clients
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d git=%s clients=%d closed-loop; %s; RTT %s",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.GitSHA, e.Clients, e.Fabric, e.RTT)
}

// gitSHA reads the checkout's HEAD by hand: the benchmark also runs from
// checkouts that are not git repositories, and must not look outside its own.
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(sha, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return "unknown"
		}
		sha = strings.TrimSpace(string(b))
	}
	if len(sha) > 12 {
		sha = sha[:12]
	}
	return sha
}

// loadClients is min(2, nproc): more generators than CPUs would measure the
// scheduler, not the program.
func loadClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}
