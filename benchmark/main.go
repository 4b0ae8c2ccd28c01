// Command benchmark is the one benchmark of the whole system: it builds the
// CLI binaries, generates its graphs from -seed, drives cmd/fractal (and
// fractal-worker) as child processes in a closed loop with one client,
// checks every result against a digest, and prints every metric by name
// with its unit. See README.md.
//
//	go run -C benchmark . -seed 1                      all workloads, untraced then traced
//	go run -C benchmark . -seed 1 -workload fsm_ml -trace 0
//	go run -C benchmark . -seed 1 -quick               CI smoke
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 24

func main() {
	var (
		seed     = flag.Int64("seed", 0, "workload seed (required): the same seed gives the same input files")
		only     = flag.String("workload", "", "run one workload and print the driver's result line (default: all)")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long the timed jobs of one workload run")
		trace    = flag.Int("trace", -1, "0: untraced jobs for -seconds, end-to-end metrics; 1: a few untraced rounds, traced jobs and layer probes, per-layer metrics; default both")
		quick    = flag.Bool("quick", false, "smoke run: small inputs, one timed round, probes at a tenth; not comparable")
		outPath  = flag.String("out", "", "result file (default benchmark/out/result.json)")
		compare  = flag.Bool("compare", false, "compare two result files (or comma-separated sets of them): -compare a.json b.json")
		seedSeen bool
	)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { seedSeen = seedSeen || f.Name == "seed" })
	if *compare {
		if flag.NArg() != 2 {
			fatalf(2, "-compare needs two result files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if !seedSeen || flag.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	root, err := repoRoot()
	if err != nil {
		fatalf(2, "%v", err)
	}
	// `go build ./cmd/...` of the repository under test runs from its root.
	if err := os.Chdir(root); err != nil {
		fatalf(2, "%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h := &harness{
		ctx: ctx, seed: *seed, quick: *quick, seconds: *seconds,
		outDir: filepath.Join(root, "benchmark", "out"), sz: fullSizes, tr: newTracer(),
		written: map[string]string{},
	}
	if *quick {
		h.sz = quickSizes
	}
	h.binDir, h.dataDir = filepath.Join(h.outDir, "bin"), filepath.Join(h.outDir, "data")
	for _, d := range []string{h.binDir, h.dataDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatalf(1, "%v", err)
		}
	}

	res := result{
		Schema: resultSchema, Seed: *seed, Quick: *quick, Seconds: *seconds,
		Host: fmt.Sprintf("%s %s/%s %d cpus", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
	}
	var defs []workloadDef
	for _, w := range workloads(h.sz) {
		if *only == "" || *only == w.name {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fatalf(2, "unknown workload %q", *only)
	}
	for _, w := range defs {
		wr, err := h.runWorkload(w, *trace != 1, *trace != 0)
		if err != nil {
			// Set-up failed: there is nothing to measure and no result.
			fatalf(1, "%s: %v", w.name, err)
		}
		res.Workloads = append(res.Workloads, wr)
		printWorkload(os.Stdout, wr)
	}

	if *outPath == "" {
		*outPath = filepath.Join(h.outDir, "result.json")
	}
	if err := writeJSON(*outPath, res); err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Printf("result: %s\n", *outPath)
	if *trace != 0 {
		tracePath := filepath.Join(h.outDir, "trace.json")
		if err := h.tr.write(tracePath); err != nil {
			fatalf(1, "%v", err)
		}
		fmt.Printf("trace: %s\n", tracePath)
	}

	failed := 0
	for _, wr := range res.Workloads {
		failed += wr.Failed
	}
	if *only != "" {
		printDriverLine(res.Workloads[0], *trace)
	}
	if failed > 0 || ctx.Err() != nil {
		os.Exit(1)
	}
}

// printDriverLine prints the acceptance driver's result object as the last
// line of standard output: the gated end-to-end metrics of an untraced run;
// the advisory ones and the per-layer metrics of a traced one. The driver
// wants a number for every metric, so a null (see metric) goes out as the 0
// the program reported.
func printDriverLine(wr workloadResult, trace int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	add := func(m metrics, defs []metricDef) {
		for _, d := range defs {
			v := value{Unit: d.Unit}
			if p := m[d.Name].Value; p != nil {
				v.Value = *p
			}
			out[d.Name] = v
		}
	}
	if trace == 1 {
		add(wr.EndToEnd, gated(false))
		add(wr.PerLayer, perLayer)
	} else {
		add(wr.EndToEnd, gated(true))
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.Failed == 0 && wr.Attempted > 0, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": out,
	})
	if err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Println(string(line))
}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds module fractal and its CLI. `go run -C
// benchmark .` starts the program in benchmark/, one level below it.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module fractal\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "fractal", "main.go")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no fractal checkout at or above the working directory: the benchmark measures the repository it sits in")
		}
		dir = parent
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}
