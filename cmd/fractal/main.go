// Command fractal runs the GPM application kernels on a graph file.
//
// Usage:
//
//	fractal -graph <path> -app <name> [flags]
//
// Applications:
//
//	motifs    -k <vertices>
//	cliques   -k <vertices> [-kclist]
//	triangles
//	fsm       -support <min> [-maxedges <n>]
//	query     -pattern <triangle|square|diamond|clique4|clique5|path3|path4|star4|star5|bowtie|house|prism|doublesquare>
//	keywords  -keywords <comma,separated> [-reduce]
//
// -reduce applies to keywords only: it reduces the graph to the edges that
// carry a query keyword (Section 4.3). FSM has no such flag: every level past
// the first always mines the graph of its frequent edges.
//
// Runtime flags: -workers, -cores, -ws (none|internal|external|both), -tcp.
//
// Conversion:
//
//	-convert <out.fgr>   convert -graph to the binary .fgr format and exit.
//	                     An .fgr graph is memory-mapped at load instead of
//	                     parsed, and worker processes sharing a machine map
//	                     one physical copy; point -graph (or a distributed
//	                     job's graph path) at the .fgr file to use it.
//
// Distributed flags:
//
//	-listen <addr>       run as a distributed master: serve registrations
//	                     from fractal-worker processes on addr and execute
//	                     the app across them (motifs, cliques, triangles,
//	                     fsm, query). The graph path must be readable by
//	                     every worker process. What only runs in-process is
//	                     rejected up front: -app keywords, -kclist.
//	-min-workers <n>     wait for n worker registrations before starting
//
// Plan flags:
//
//	-engine <auto|plan>   motifs/cliques/triangles/query engine: auto
//	                      (default; the cost model picks between
//	                      enumeration and pattern decomposition) or plan
//	                      (compiled symmetry-broken pattern plans only, the
//	                      reference enumeration). cliques and triangles
//	                      always enumerate their plan.
//	-explain              print the engine decision the run would execute
//	                      (motifs, cliques, triangles, query) and exit
//	                      without loading a graph: the selection reason,
//	                      then per pattern its decomposition's terms or
//	                      the plan that enumerates it. It assumes a
//	                      uniform-label graph, and refuses what the run
//	                      refuses, with the same error. It refuses
//	                      -kclist, which runs no engine decision.
//
// Observability flags:
//
//	-metrics-out <path>  write the run's RunReport (per-step counters,
//	                     quiescence rounds, transport traffic, trace
//	                     journal when -trace is set) as JSON; under
//	                     -listen it includes the workers' counters
//	-trace               enable the structured trace journal for the run
//	-pprof <prefix>      profile the run with runtime/pprof: its CPU samples
//	                     go to <prefix>.cpu.pprof, the heap at exit to
//	                     <prefix>.heap.pprof (read both with `go tool pprof`)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/pattern"
)

// stopProfile ends the profiles -pprof started. fatal runs it as well as
// main's return, because os.Exit skips deferred calls.
var stopProfile = func() {}

// startProfile starts the CPU profile of -pprof and arms stopProfile to end
// it and write the heap profile beside it.
func startProfile(prefix string) error {
	cpu, err := os.Create(prefix + ".cpu.pprof")
	if err == nil {
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	stopProfile = func() {
		stopProfile = func() {}
		pprof.StopCPUProfile()
		err := cpu.Close()
		heap, herr := os.Create(prefix + ".heap.pprof")
		if herr == nil {
			runtime.GC() // the heap profile is as of the last collection
			herr = errors.Join(pprof.WriteHeapProfile(heap), heap.Close())
		}
		if err = errors.Join(err, herr); err != nil {
			fmt.Fprintln(os.Stderr, "fractal: -pprof:", err)
		}
	}
	return nil
}

func main() {
	var (
		graphPath  = flag.String("graph", "", "input graph file (.graph, .el, .fgr)")
		convertOut = flag.String("convert", "", "convert -graph to the binary .fgr format at this path and exit")
		app        = flag.String("app", "", "application to run")
		k          = flag.Int("k", 3, "subgraph size (motifs, cliques)")
		kclist     = flag.Bool("kclist", false, "use the KClist custom enumerator (cliques)")
		support    = flag.Int64("support", 100, "minimum support (fsm)")
		maxEdges   = flag.Int("maxedges", 3, "maximum pattern edges (fsm)")
		reduce     = flag.Bool("reduce", false, "reduce the graph to the edges carrying a query keyword (keywords)")
		queryName  = flag.String("pattern", "triangle", "query pattern (query)")
		keywords   = flag.String("keywords", "", "comma-separated query keywords (keywords)")
		workers    = flag.Int("workers", 1, "number of workers")
		cores      = flag.Int("cores", 4, "cores per worker")
		wsMode     = flag.String("ws", "both", "work stealing: none|internal|external|both")
		useTCP     = flag.Bool("tcp", false, "use TCP transport between workers")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics snapshot (RunReport JSON) to this file")
		traceOn    = flag.Bool("trace", false, "record the structured trace journal (exported via -metrics-out)")
		pprofOut   = flag.String("pprof", "", "write <prefix>.cpu.pprof (the whole run) and <prefix>.heap.pprof (at exit) with this prefix")
		engine     = flag.String("engine", "auto", "counting engine (motifs, cliques, triangles, query): auto (cost-model selection) or plan (compiled pattern plans only)")
		explain    = flag.Bool("explain", false, "print the selected app's engine decision and its plans, and exit (no graph needed)")
		retries    = flag.Int("retries", 0, "re-execute a step up to n times after a worker loss (0: a loss fails the run)")
		retryWait  = flag.Duration("retry-backoff", 0, "pause between step retry attempts (default 5ms)")
		listenAddr = flag.String("listen", "", "run as distributed master: serve worker registrations on this address")
		minWorkers = flag.Int("min-workers", 0, "wait for this many worker registrations before starting (-listen)")
	)
	flag.Parse()
	// Reject silently-wrong runtime shapes up front, with flag-level messages
	// (the library rejects them too, as ConfigError).
	if *workers < 1 {
		fatal(fmt.Errorf("-workers must be at least 1, got %d", *workers))
	}
	if *cores < 1 {
		fatal(fmt.Errorf("-cores must be at least 1, got %d", *cores))
	}
	if *retries < 0 {
		fatal(fmt.Errorf("-retries must not be negative, got %d", *retries))
	}
	if *maxEdges < 1 || *maxEdges > apps.MaxFSMEdges {
		fatal(fmt.Errorf("-maxedges must be in [1, %d], got %d", apps.MaxFSMEdges, *maxEdges))
	}
	if *minWorkers < 0 {
		fatal(fmt.Errorf("-min-workers must not be negative, got %d", *minWorkers))
	}
	if *minWorkers > 0 && *listenAddr == "" {
		fatal(fmt.Errorf("-min-workers requires -listen"))
	}
	if *convertOut != "" {
		if *graphPath == "" {
			flag.Usage()
			os.Exit(2)
		}
		g, err := fractal.ConvertGraph(*graphPath, *convertOut)
		check(err)
		s := g.Stats()
		fmt.Printf("converted %s -> %s: |V|=%d |E|=%d |L|=%d\n", *graphPath, *convertOut, s.V, s.E, s.L)
		return
	}
	if *app == "" || *graphPath == "" && !*explain {
		flag.Usage()
		os.Exit(2)
	}
	check(checkFlags(*app, *engine, *listenAddr != "", *explain, *kclist, *reduce))
	if *explain {
		check(explainApp(*app, *k, *queryName, *engine))
		return
	}
	if *pprofOut != "" {
		check(startProfile(*pprofOut))
		defer stopProfile()
	}

	cfg := fractal.Config{
		Workers: *workers, CoresPerWorker: *cores, UseTCP: *useTCP, Trace: *traceOn,
		StepRetries: *retries, RetryBackoff: *retryWait, ListenAddr: *listenAddr,
	}
	switch *wsMode {
	case "none":
		cfg.WS = fractal.WSNone
	case "internal":
		cfg.WS = fractal.WSInternal
	case "external":
		cfg.WS = fractal.WSExternal
	case "both":
		cfg.WS = fractal.WSBoth
	default:
		fatal(fmt.Errorf("unknown -ws mode %q", *wsMode))
	}
	fc, err := fractal.NewContext(fractal.WithConfig(cfg))
	check(err)
	defer fc.Close()
	// Interruption (SIGINT, SIGTERM) cancels the run cleanly through the
	// step protocol.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *listenAddr != "" {
		fmt.Printf("master listening on %s\n", fc.ListenAddr())
	}
	// A master names the graph by path — every worker loads it from its own
	// filesystem — and loads it itself to split the workflow into steps.
	g, err := fc.LoadGraph(*graphPath)
	check(err)
	s := g.Stats()
	fmt.Printf("loaded %s: |V|=%d |E|=%d |L|=%d\n", s.Name, s.V, s.E, s.L)
	if *minWorkers > 0 {
		fmt.Printf("waiting for %d worker(s)...\n", *minWorkers)
		check(fc.AwaitWorkers(ctx, *minWorkers))
	}

	var last *fractal.Result
	switch *app {
	case "motifs":
		m, res, err := apps.Motifs(ctx, fc, g, *k, *engine)
		check(err)
		last = res
		fmt.Printf("%d-vertex motifs [%s engine]: %d classes, %d subgraphs, EC=%d, %s\n",
			*k, *engine, len(m), m.Total(), res.TotalEC(), res.Wall)
		for code, pc := range m {
			fmt.Printf("  %x: %d  %v\n", code[:min(8, len(code))], pc.Count, pc.Pat)
		}
	case "cliques", "triangles":
		name := fmt.Sprintf("%d-cliques", *k)
		if *app == "triangles" {
			name, *k = "triangles", 3
		}
		count := apps.Cliques
		if *kclist {
			count = apps.CliquesKClist
		}
		n, res, err := count(ctx, fc, g, *k)
		check(err)
		last = res
		fmt.Printf("%s: %d (EC=%d, %s)\n", name, n, res.TotalEC(), res.Wall)
	case "fsm":
		res, err := apps.FSM(ctx, fc, g, *support, apps.FSMOptions{MaxEdges: *maxEdges})
		check(err)
		last = res.Last
		fmt.Printf("frequent patterns (support >= %d): %d, per level %v\n",
			*support, len(res.Frequent), res.PerLevel)
		for _, ds := range res.Frequent {
			fmt.Printf("  s=%d  %v\n", ds.Support(), ds.Pat)
		}
	case "query":
		p, err := patternByName(*queryName)
		check(err)
		n, res, err := apps.Query(ctx, fc, g, p, *engine)
		check(err)
		last = res
		fmt.Printf("matches of %s [%s engine]: %d (EC=%d, %s)\n", *queryName, *engine, n, res.TotalEC(), res.Wall)
	case "keywords":
		if *keywords == "" {
			fatal(fmt.Errorf("-keywords required"))
		}
		res, err := apps.KeywordSearch(ctx, fc, g, strings.Split(*keywords, ","),
			apps.KeywordOptions{GraphReduction: *reduce})
		check(err)
		last = res.Result
		fmt.Printf("covering subgraphs: %d (graph |V|=%d |E|=%d, EC=%d, %s)\n",
			res.Matches, res.GraphV, res.GraphE, res.EC, res.Result.Wall)
	}
	if *metricsOut != "" {
		check(writeMetrics(*metricsOut, last))
	}
}

// checkFlags rejects, before anything is loaded or awaited, an -app that
// does not exist and every flag the selected app would otherwise silently
// ignore: an -engine value the app has no such engine for, -kclist under
// -explain (the KClist enumerator is no engine decision, so -explain would
// print a plan the run does not execute), and — for a -listen master, which
// can only ship the registered spec kernels to its workers — whatever runs
// as in-process closures only.
func checkFlags(app, engine string, master, explain, kclist, reduce bool) error {
	// Whether the app counts patterns, and so has engines to choose from.
	counts, ok := map[string]bool{
		"motifs": true, "query": true, "cliques": true, "triangles": true, "fsm": false, "keywords": false,
	}[app]
	if !ok {
		return fmt.Errorf("unknown -app %q", app)
	}
	if reduce && app != "keywords" {
		return fmt.Errorf("-reduce applies to -app keywords only (fsm always mines the frequent-edge graph)")
	}
	switch engine {
	case apps.EngineAuto:
	case apps.EnginePlan:
		if !counts {
			return fmt.Errorf("-engine plan does not apply to -app %s (it accepts: auto)", app)
		}
	default:
		return fmt.Errorf("unknown -engine %q (want auto or plan)", engine)
	}
	if explain && kclist {
		return fmt.Errorf("-explain prints the engine decision, which -kclist bypasses for the KClist enumerator; drop one of them")
	}
	if !master {
		return nil
	}
	switch {
	case app == "keywords":
		return fmt.Errorf("-app %s has no distributed form; -listen accepts motifs, cliques, triangles, fsm, or query", app)
	case kclist:
		return fmt.Errorf("-kclist runs in-process only; drop it or -listen")
	}
	return nil
}

// writeMetrics dumps the run's RunReport as JSON to path.
func writeMetrics(path string, res *fractal.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("metrics snapshot written to %s\n", path)
	return nil
}

// explainApp prints, without loading a graph, the decision the selected
// application's run would execute — the one apps.Decide* makes for the run,
// assuming a uniform-label graph — and refuses what the run would refuse,
// with the same error: the selection reason, then per pattern its
// decomposition or the plan that enumerates it.
func explainApp(app string, k int, queryName, engine string) error {
	var d *apps.Decision
	var err error
	switch app {
	case "motifs":
		if d, err = apps.DecideMotifs(nil, k, engine); err == nil {
			fmt.Printf("%d-vertex motifs: %d patterns\n", k, len(d.Patterns))
		}
	case "triangles":
		d, err = apps.DecideCliques(3)
	case "cliques":
		d, err = apps.DecideCliques(k)
	case "query":
		var p *fractal.Pattern
		if p, err = patternByName(queryName); err == nil {
			d, err = apps.DecideQuery(nil, p, engine)
		}
	default:
		return fmt.Errorf("-explain supports motifs, cliques, triangles, and query, not %q", app)
	}
	if err != nil {
		return err
	}
	fmt.Printf("selection: %s\n\n", d.Reason)
	compile := fractal.CompilePlan
	if d.Induced {
		compile = fractal.CompileInducedPlan
	}
	for i, p := range d.Patterns {
		if d.Swept(i) {
			fmt.Println(d.Sweep[i].Explain())
			continue
		}
		pl, err := compile(p)
		if err != nil {
			return err
		}
		fmt.Println(pl.Explain())
	}
	return nil
}

func patternByName(name string) (*fractal.Pattern, error) {
	switch name {
	case "triangle":
		return pattern.Triangle(), nil
	case "square":
		return pattern.Cycle(4), nil
	case "diamond":
		return pattern.ChordalSquare(), nil
	case "clique4":
		return pattern.Clique(4), nil
	case "clique5":
		return pattern.Clique(5), nil
	case "path3":
		return pattern.Path(3), nil
	case "path4":
		return pattern.Path(4), nil
	case "star4":
		return pattern.Star(4), nil
	case "star5":
		return pattern.Star(5), nil
	case "bowtie":
		return pattern.Bowtie(), nil
	case "house":
		return pattern.House(), nil
	case "prism":
		return pattern.SEEDQueries()[6], nil
	case "doublesquare":
		return pattern.DoubleSquare(), nil
	}
	return nil, fmt.Errorf("unknown pattern %q", name)
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fractal:", err)
	stopProfile()
	os.Exit(1)
}
