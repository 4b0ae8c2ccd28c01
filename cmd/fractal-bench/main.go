// Command fractal-bench regenerates the tables and figures of the Fractal
// paper's evaluation on the synthetic dataset analogs, Fractal against the
// baselines of internal/baselines.
//
// Usage:
//
//	fractal-bench [-quick] [-exp <id>] [-list]
//	fractal-bench -report <file>
//
// Without -exp, every experiment runs in order. -report prints the
// drill-down view of a snapshot written by `fractal -metrics-out`. See
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results.
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
	)
	flag.Parse()

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
