package baselines_test

import (
	"context"
	"errors"
	"testing"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/baselines/bfsengine"
	"fractal/internal/baselines/mapreduce"
	"fractal/internal/baselines/scalemine"
	"fractal/internal/baselines/seed"
	"fractal/internal/baselines/singlethread"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"
	"fractal/internal/workload"

	igraph "fractal/internal/graph"
)

func testGraphs() []*igraph.Graph {
	return []*igraph.Graph{
		workload.ErdosRenyi("er-sparse", 60, 150, 1, 21),
		workload.ErdosRenyi("er-dense", 40, 260, 1, 22),
		workload.BarabasiAlbert("ba", 90, 3, 1, 23),
	}
}

func fractalCtx(t *testing.T) *fractal.Context {
	t.Helper()
	ctx, err := fractal.NewContext(fractal.WithCores(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return ctx
}

func TestCliqueCountsAgreeEverywhere(t *testing.T) {
	ctx := fractalCtx(t)
	for _, g := range testGraphs() {
		for k := 3; k <= 5; k++ {
			st := singlethread.Cliques(g, k)
			fr, _, err := apps.Cliques(context.Background(), ctx, ctx.FromGraph(g), k)
			if err != nil {
				t.Fatal(err)
			}
			bfs, err := bfsengine.Cliques(g, k, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			mr, err := mapreduce.Cliques(g, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Count != fr || st.Count != bfs.Count || st.Count != mr.Count {
				t.Errorf("%s %d-cliques: singlethread=%d fractal=%d bfs=%d mr=%d",
					g.Name(), k, st.Count, fr, bfs.Count, mr.Count)
			}
		}
	}
}

func TestTriangleCountsAgreeEverywhere(t *testing.T) {
	ctx := fractalCtx(t)
	for _, g := range testGraphs() {
		st := singlethread.Triangles(g)
		fr, _, err := apps.Triangles(context.Background(), ctx, ctx.FromGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		mr, err := mapreduce.Triangles(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		sd := seed.Triangles(g)
		if st.Count != fr || st.Count != mr.Count || st.Count != sd {
			t.Errorf("%s triangles: singlethread=%d fractal=%d mr=%d seed=%d",
				g.Name(), st.Count, fr, mr.Count, sd)
		}
	}
}

func TestMotifCountsAgreeEverywhere(t *testing.T) {
	ctx := fractalCtx(t)
	for _, g := range testGraphs()[:2] {
		for k := 3; k <= 4; k++ {
			stCounts, st := singlethread.Motifs(g, k)
			frCounts, _, err := apps.Motifs(context.Background(), ctx, ctx.FromGraph(g), k, apps.EngineAuto)
			if err != nil {
				t.Fatal(err)
			}
			bfsCounts, _, err := bfsengine.Motifs(g, k, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			mrCounts, mr, err := mapreduce.Motifs(g, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(stCounts)) != int64(len(frCounts)) ||
				len(stCounts) != len(bfsCounts) || len(stCounts) != len(mrCounts) {
				t.Fatalf("%s k=%d: class counts differ: st=%d fr=%d bfs=%d mr=%d",
					g.Name(), k, len(stCounts), len(frCounts), len(bfsCounts), len(mrCounts))
			}
			var frTotal int64
			for code, c := range stCounts {
				if bfsCounts[code] != c || mrCounts[code] != c {
					t.Errorf("%s k=%d: per-class mismatch for %q: st=%d bfs=%d mr=%d",
						g.Name(), k, code, c, bfsCounts[code], mrCounts[code])
				}
			}
			for code, pc := range frCounts {
				frTotal += pc.Count
				if stCounts[code] != pc.Count {
					t.Errorf("%s k=%d: fractal count mismatch for %q: %d vs %d",
						g.Name(), k, code, pc.Count, stCounts[code])
				}
			}
			if frTotal != st.Count || mr.Count != st.Count {
				t.Errorf("%s k=%d: totals differ: st=%d fr=%d mr=%d",
					g.Name(), k, st.Count, frTotal, mr.Count)
			}
		}
	}
}

func TestQueryCountsAgreeEverywhere(t *testing.T) {
	ctx := fractalCtx(t)
	queries := pattern.SEEDQueries()
	for _, g := range testGraphs()[:2] {
		for qi, p := range queries {
			if p.NumVertices() > 5 && g.NumEdges() > 200 {
				continue // keep the heavy prism/double-square cases small
			}
			st, err := singlethread.Query(g, p)
			if err != nil {
				t.Fatal(err)
			}
			fr, _, err := apps.Query(context.Background(), ctx, ctx.FromGraph(g), p, apps.EnginePlan)
			if err != nil {
				t.Fatal(err)
			}
			sd, err := seed.Query(g, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			bfs, err := bfsengine.Query(g, p, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Count != fr || st.Count != sd.Count || st.Count != bfs.Count {
				t.Errorf("%s q%d: singlethread=%d fractal=%d seed=%d bfs=%d",
					g.Name(), qi+1, st.Count, fr, sd.Count, bfs.Count)
			}
		}
	}
}

func TestFSMFrequentSetsAgreeEverywhere(t *testing.T) {
	ctx := fractalCtx(t)
	g := workload.Community("fsm-comm", 8, 12, 5, 0.6, 4, 31)
	const supp, maxEdges = 6, 2

	st, _ := singlethread.FSM(g, supp, maxEdges)
	fr, err := apps.FSM(context.Background(), ctx, ctx.FromGraph(g), supp, apps.FSMOptions{MaxEdges: maxEdges})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := bfsengine.FSM(g, supp, maxEdges, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sm := scalemine.Mine(g, supp, scalemine.Options{MaxEdges: maxEdges, Seed: 1})

	if len(st) == 0 {
		t.Fatal("degenerate FSM test: nothing frequent")
	}
	if len(fr.Frequent) != len(st) || len(bfs.Frequent) != len(st) || len(sm.Frequent) != len(st) {
		t.Fatalf("frequent set sizes differ: st=%d fractal=%d bfs=%d scalemine=%d",
			len(st), len(fr.Frequent), len(bfs.Frequent), len(sm.Frequent))
	}
	for code, ds := range st {
		fds, ok := fr.Frequent[code]
		if !ok {
			t.Errorf("fractal missed pattern %q", code)
			continue
		}
		if fds.Support() != ds.Support() {
			t.Errorf("pattern %q: fractal support %d vs %d", code, fds.Support(), ds.Support())
		}
		if _, ok := bfs.Frequent[code]; !ok {
			t.Errorf("bfs missed pattern %q", code)
		}
		capped, ok := sm.Frequent[code]
		if !ok {
			t.Errorf("scalemine missed pattern %q", code)
		} else if capped > ds.Support() {
			t.Errorf("pattern %q: scalemine capped support %d above exact %d", code, capped, ds.Support())
		}
	}
	if sm.SampledPatterns == 0 || sm.Phase1 <= 0 {
		t.Error("scalemine phase 1 did nothing")
	}
}

func TestMemoryBudgetsTrigger(t *testing.T) {
	g := workload.BarabasiAlbert("ba-oom", 300, 6, 1, 41)
	if _, err := bfsengine.Cliques(g, 4, 2, 64); !errors.Is(err, bfsengine.ErrOutOfMemory) {
		t.Errorf("bfsengine budget not enforced: %v", err)
	}
	if _, err := mapreduce.Triangles(g, 64); !errors.Is(err, mapreduce.ErrOutOfMemory) {
		t.Errorf("mapreduce triangle budget not enforced: %v", err)
	}
	if _, err := mapreduce.Cliques(g, 4, 64); !errors.Is(err, mapreduce.ErrOutOfMemory) {
		t.Errorf("mapreduce clique budget not enforced: %v", err)
	}
	if _, _, err := mapreduce.Motifs(g, 4, 1024); !errors.Is(err, mapreduce.ErrOutOfMemory) {
		t.Errorf("mapreduce motif budget not enforced: %v", err)
	}
	if _, err := seed.Query(g, pattern.Path(4), 4); err == nil {
		t.Error("seed partial budget not enforced")
	}
}

func TestBFSPeakStateGrowsWithDepth(t *testing.T) {
	// The Table 2 phenomenon: BFS materialized state grows steeply with
	// depth while Fractal's enumerator state stays flat.
	g := workload.BarabasiAlbert("ba-state", 400, 4, 1, 55)
	r3, err := bfsengine.Run(g, subgraph.VertexInduced, nil, 3, bfsengine.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := bfsengine.Run(g, subgraph.VertexInduced, nil, 4, bfsengine.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r4.PeakStateBytes < 2*r3.PeakStateBytes {
		t.Errorf("BFS state did not explode: depth3=%d depth4=%d", r3.PeakStateBytes, r4.PeakStateBytes)
	}
}

func TestSeedPlanShapes(t *testing.T) {
	// Join-friendly patterns decompose into few overlapping units.
	g := workload.ErdosRenyi("er-plan", 30, 120, 1, 61)
	res, err := seed.Query(g, pattern.Clique(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Units > 3 {
		t.Errorf("4-clique plan has %d units, want few (triangle-covered)", res.Units)
	}
	res2, err := seed.Query(g, pattern.Path(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Units != 3 {
		t.Errorf("path4 plan has %d units, want 3 single edges", res2.Units)
	}
}
