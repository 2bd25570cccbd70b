// Command bench is godm's benchmark harness: one closed-loop load generator,
// five named workloads, end-to-end metrics from an untraced pass and
// per-layer metrics from a traced one. See README.md in this directory.
//
//	bash bench/run.sh                          # the whole suite, writes bench/BUDGET.md
//	bash bench/run.sh --workload get4k-loop --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -repeat 3 -out a.json    # three suites, per-metric spread
//	bash bench/run.sh -compare a.json b.json   # improved / unchanged / regressed / unresolved
package main

import (
	"flag"
	"fmt"
	"os"
)

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.Workload {
	case "get4k-loop":
		return newGet4k(cfg), nil
	case "window4k-loop":
		return newWindow4k(cfg), nil
	case "rw64k-rtt-rf3":
		return newRW64k(cfg, "rf3"), nil
	case "rw64k-rtt-rs42":
		return newRW64k(cfg, "rs4.2"), nil
	case "swap-sim":
		return newSwapSim(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload in this process (default: the whole suite, one child process per pass)")
		seed      = flag.Int64("seed", 1, "seed for the bench's generators (key choice, payload bytes)")
		seconds   = flag.Float64("seconds", 0, "measured seconds per pass (default 15, or 1.2 with -quick)")
		trace     = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		quick     = flag.Bool("quick", false, "smoke sizes: small populations, short warm-up and windows")
		repeat    = flag.Int("repeat", 1, "suite mode: run the suite this many times and print per-metric spread")
		out       = flag.String("out", "", "suite mode: also write every run's metrics to this JSON file")
		budget    = flag.String("budget", "bench/BUDGET.md", "suite mode: where to write the per-layer budget (empty: nowhere)")
		setupOnly = flag.Bool("setup-only", false, "with -workload: build and tear down the rig once, print the set-up seconds (what a pass runs in child processes for setup_s)")
		compare   = flag.Bool("compare", false, "compare two -out files given as arguments: baseline, then candidate")
	)
	flag.Parse()
	if *seconds == 0 {
		*seconds = 15
		if *quick {
			*seconds = 1.2
		}
	}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two files: baseline.json candidate.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *name != "":
		cfg := runConfig{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick}
		if *setupOnly {
			var secs float64
			if secs, err = timeSetup(cfg); err == nil {
				fmt.Println(secs)
			}
			break
		}
		var res *result
		if res, err = runOne(cfg); err == nil {
			err = res.print(os.Stdout)
		}
	default:
		err = runSuite(os.Stdout, suiteConfig{
			Seed: *seed, Seconds: *seconds, Quick: *quick, Repeat: *repeat, Out: *out, Budget: *budget,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
