// Command fractal-bench regenerates the tables and figures of the Fractal
// paper's evaluation on the synthetic dataset analogs, Fractal against the
// baselines of internal/baselines.
//
// Usage:
//
//	fractal-bench [-quick] [-exp <id>] [-list]
//	fractal-bench -report <file>
//	fractal-bench -pair -base <rev> [-n 10] [-seed S] [-workload W[,W...]] [-label L]
//
// Without -exp, every experiment runs in order. -report prints the
// drill-down view of a snapshot written by `fractal -metrics-out`. -pair
// runs the repository benchmark (benchmark/) of HEAD and of -base in n
// alternating pairs on one host, each revision from a git worktree with its
// own benchmark/, then one traced run a side, and writes BENCH_<label>.json
// at the repository root: per metric and side the median, the quartiles
// and in how many pairs it read lower, and whether the traced runs' digests
// and exact counters agree. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results.
package main

import (
	"flag"
	"fmt"
	"os"

	"fractal/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "", "experiment id to run (default: all)")
		quick  = flag.Bool("quick", false, "use reduced dataset sizes and sweeps")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		report = flag.String("report", "", "analyze a metrics snapshot written by `fractal -metrics-out` and exit")
		pair   = flag.Bool("pair", false, "run the repository benchmark of HEAD against -base in alternating pairs and write BENCH_<label>.json")
		base   = flag.String("base", "", "-pair: the revision HEAD is compared against")
		n      = flag.Int("n", 10, "-pair: alternating pairs per workload")
		seed   = flag.Int64("seed", 1, "-pair: the benchmark's -seed")
		work   = flag.String("workload", "", "-pair: workloads of BENCHMARK.json, comma-separated (default: every one)")
		label  = flag.String("label", "", "-pair: names the output file BENCH_<label>.json (default: from the workload and seed)")
	)
	flag.Parse()

	if *pair {
		if *n < 1 {
			fmt.Fprintln(os.Stderr, "fractal-bench: -n must be at least 1")
			os.Exit(2)
		}
		path, err := bench.Pair(bench.PairOptions{
			Base: *base, N: *n, Seed: *seed, Workload: *work, Label: *label, Log: os.Stderr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fractal-bench:", err)
			os.Exit(1)
		}
		fmt.Println(path)
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *report != "" {
		rep, err := bench.LoadRunReport(*report)
		if err == nil {
			err = bench.AnalyzeRunReport(rep, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fractal-bench:", err)
			os.Exit(1)
		}
		return
	}
	o := bench.Options{Out: os.Stdout, Quick: *quick}
	var err error
	if *exp == "" {
		err = bench.RunAll(o)
	} else {
		err = bench.RunExperiment(*exp, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fractal-bench:", err)
		os.Exit(1)
	}
}
