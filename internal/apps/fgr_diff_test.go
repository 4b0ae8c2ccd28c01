package apps

// End-to-end differential pins for the .fgr storage path: FSM and keyword
// results must be bit-identical whether the application kernels consume the
// graph built in memory or memory-mapped from a converted .fgr file (counts
// of the other apps are FuzzEngines' storage axis). Together with the
// accessor pins in internal/graph and the trace pins in internal/subgraph
// this closes the correctness wall around the mmap storage layer.

import (
	"path/filepath"
	"testing"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/workload"
)

// mmapGraph converts raw to .fgr in a temp dir and loads it through the
// mmap path.
func mmapGraph(t *testing.T, raw *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), raw.Name()+".fgr")
	saveGraph(t, path, raw)
	mapped, err := graph.LoadFGR(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() {
		t.Fatal("LoadFGR graph does not report Mapped")
	}
	t.Cleanup(func() { mapped.Close() })
	return mapped
}

// TestFGRAppsDifferential pins FSM results over the randomized workload
// graphs against the same run on the mmap'd .fgr copy.
func TestFGRAppsDifferential(t *testing.T) {
	ctx := inProcess(fractal.WithWorkers(2), fractal.WithCores(2))(t)
	graphs := []*graph.Graph{
		workload.ErdosRenyi("fgr-er", 60, 220, 1, 61),
		workload.ErdosRenyi("fgr-er-ml", 60, 220, 3, 62),
		workload.BarabasiAlbert("fgr-ba", 80, 3, 2, 63),
	}
	for _, raw := range graphs {
		mapped := mmapGraph(t, raw)
		t.Run(raw.Name(), func(t *testing.T) {
			want, err := FSM(bg, ctx, ctx.FromGraph(raw), 8, FSMOptions{MaxEdges: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := FSM(bg, ctx, ctx.FromGraph(mapped), 8, FSMOptions{MaxEdges: 2})
			if err != nil {
				t.Fatal(err)
			}
			fsmDistEqual(t, "mmap FSM", got, want)
		})
	}
}

// TestFGRKeywordSearchDifferential pins the keyword kernel — the one path
// exercising in-format keyword sections — over the mmap'd copy.
func TestFGRKeywordSearchDifferential(t *testing.T) {
	ctx := inProcess(fractal.WithWorkers(2), fractal.WithCores(2))(t)
	raw := keywordTestGraph()
	mapped := mmapGraph(t, raw)
	kws := []string{"a", "b"}
	want, err := KeywordSearch(bg, ctx, ctx.FromGraph(raw), kws, KeywordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := KeywordSearch(bg, ctx, ctx.FromGraph(mapped), kws, KeywordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || got.GraphV != want.GraphV || got.GraphE != want.GraphE {
		t.Errorf("keyword search over mmap=(%d,%d,%d), in-memory (%d,%d,%d)",
			got.Matches, got.GraphV, got.GraphE, want.Matches, want.GraphV, want.GraphE)
	}
}
