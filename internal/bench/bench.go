// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (Section 5 and Appendix C) on the
// synthetic dataset analogs of internal/workload. Each experiment prints
// rows in the shape of the paper's artifact; EXPERIMENTS.md records the
// paper-vs-measured comparison. Motif and query kernels run on
// apps.EngineAuto, the engine cmd/fractal runs by default. The package also
// holds AnalyzeRunReport, the drill-down view of a `fractal -metrics-out`
// snapshot.
//
// Two measurement regimes are used, as documented in DESIGN.md:
//   - runtime comparisons between systems (Figures 11-13, 15, 20a) use wall
//     clock on identical inputs;
//   - parallel-scaling artifacts (Figures 8, 16, 17, 18, 19, 20b) report
//     work-distribution quantities (per-core work, makespan, efficiency =
//     work/(cores×makespan)) that the runtime measures exactly, because
//     wall-clock parallel speedup is not observable on machines without
//     enough hardware threads.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/workload"
)

// Options configures a harness run.
type Options struct {
	// Out receives the report (defaults to io.Discard if nil).
	Out io.Writer
	// Quick shrinks datasets and sweep ranges so every experiment finishes
	// in well under a second — used by the package's tests. Full runs use
	// the workload registry analogs.
	Quick bool
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// Experiment is one runnable table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) error
}

// Experiments returns the registry, ordered as in the paper.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: datasets", Table1},
		{"fig8", "Figure 8: utilization without balancing", Fig8},
		{"fig11", "Figure 11: motifs runtime", Fig11},
		{"fig12", "Figure 12: cliques runtime", Fig12},
		{"fig13", "Figure 13: FSM runtime vs support", Fig13},
		{"fig15", "Figure 15: subgraph querying (q1-q8)", Fig15},
		{"table2", "Table 2: memory per worker", Table2},
		{"fig16", "Figure 16: work stealing configurations", Fig16},
		{"fig17", "Figure 17: graph reduction for keyword search", Fig17},
		{"fig18", "Figure 18: COST analysis", Fig18},
		{"fig19", "Figure 19: strong scalability", Fig19},
		{"fig20a", "Figure 20a: triangle counting", Fig20a},
		{"fig20b", "Figure 20b: COST of optimized cliques/triangles", Fig20b},
		{"sec41", "Section 4.1: BFS intermediate-state estimate", Sec41},
		{"sec43", "Section 4.3: reduction of V/E/EC for keyword queries", Sec43},
		{"sec6", "Section 6: work-stealing overhead", Sec6},
	}
}

// RunExperiment runs one experiment by ID.
func RunExperiment(id string, o Options) error {
	for _, e := range Experiments() {
		if e.ID == id {
			fmt.Fprintf(o.out(), "== %s — %s ==\n", e.ID, e.Title)
			return e.Run(o)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", id)
}

// RunAll runs every experiment in order.
func RunAll(o Options) error {
	for _, e := range Experiments() {
		fmt.Fprintf(o.out(), "== %s — %s ==\n", e.ID, e.Title)
		if err := e.Run(o); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(o.out())
	}
	return nil
}

// ---------------------------------------------------------------------------
// Dataset access with quick-mode downscaling.

var quickSets = map[string]func() *graph.Graph{
	"mico-sl": func() *graph.Graph {
		return workload.Relabel(workload.Community("q", 10, 20, 8, 0.8, 29, 101), "mico-sl-q")
	},
	"mico-ml": func() *graph.Graph {
		return workload.Community("mico-ml-q", 10, 20, 8, 0.8, 29, 101)
	},
	"patents-sl": func() *graph.Graph {
		return workload.Relabel(workload.BarabasiAlbert("q", 500, 2, 37, 102), "patents-sl-q")
	},
	"patents-ml": func() *graph.Graph {
		return workload.BarabasiAlbert("patents-ml-q", 500, 2, 37, 102)
	},
	"youtube-sl": func() *graph.Graph {
		return workload.Relabel(workload.BarabasiAlbert("q", 600, 3, 80, 103), "youtube-sl-q")
	},
	"youtube-ml": func() *graph.Graph {
		return workload.BarabasiAlbert("youtube-ml-q", 600, 3, 80, 103)
	},
	"wikidata": func() *graph.Graph {
		return workload.KnowledgeGraph("wikidata-q", 1500, 1800, 40, 300, 104)
	},
	"orkut": func() *graph.Graph {
		return workload.Relabel(workload.BarabasiAlbert("q", 400, 8, 1, 105), "orkut-q")
	},
}

var quickCache = map[string]*graph.Graph{}

func (o Options) dataset(name string) (*graph.Graph, error) {
	if o.Quick {
		if g, ok := quickCache[name]; ok {
			return g, nil
		}
		mk, ok := quickSets[name]
		if !ok {
			return nil, fmt.Errorf("bench: no quick variant of %q", name)
		}
		g := mk()
		quickCache[name] = g
		return g, nil
	}
	return workload.ByName(name)
}

// newCtx builds a context with the given worker/core split.
func newCtx(workers, cores int, ws fractal.Config) (*fractal.Context, error) {
	cfg := ws
	cfg.Workers = workers
	cfg.CoresPerWorker = cores
	return fractal.NewContext(fractal.WithConfig(cfg))
}

// bg is the context of every experiment's runs: the harness has no caller to
// cancel it and runs each experiment to completion.
var bg = context.Background()

// table starts an aligned writer.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// ratio formats b/a, the baseline's time over Fractal's, as "x.xx×"; "-"
// when either side has no time (a failed or out-of-memory baseline).
func ratio(a, b time.Duration) string {
	if a <= 0 || b <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f×", float64(b)/float64(a))
}

// bytesHuman formats bytes as mebi/gibi-style units.
func bytesHuman(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(n)/float64(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// sortedKeys returns the sorted keys of a string map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
