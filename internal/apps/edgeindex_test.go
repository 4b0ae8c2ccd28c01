package apps

// Which jobs index the edge ids of a built graph. Counting reads neighbors
// only, so the triangle, clique, unlabelled query and motif jobs must leave
// the index unbuilt; the jobs that need edge ids — FSM, an edge-labelled
// query — and the accessors that hand them out build it. Every count must be
// the one the same graph gives loaded from .fgr, whose index is mapped.

import (
	"fmt"
	"testing"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"
	"fractal/internal/workload"
)

// built returns a fresh Builder-built preferential-attachment graph with
// one vertex label, like the benchmark's small jobs graph at a test's size:
// uniform, its edges unlabelled, or with edgeLabels > 0 its edges labelled
// "e0", "e1", ... in turn.
func built(edgeLabels int) *graph.Graph {
	b := graph.NewBuilder("edge-index")
	src := workload.BarabasiAlbert("edge-index", 300, 3, 1, 32)
	for v := 0; v < src.NumVertices(); v++ {
		b.AddVertex(src.VertexLabels(graph.VertexID(v))...)
	}
	for id := 0; id < src.NumEdges(); id++ {
		s, d := src.EdgeEndpoints(graph.EdgeID(id))
		if edgeLabels == 0 {
			b.MustAddEdge(s, d)
		} else {
			b.MustAddEdge(s, d, b.Dict().Intern(fmt.Sprint("e", id%edgeLabels)))
		}
	}
	return b.Build()
}

// TestCountingLeavesEdgeIndexUnbuilt runs each job on a fresh built graph
// and the same job on the graph's .fgr copy.
func TestCountingLeavesEdgeIndexUnbuilt(t *testing.T) {
	ctx := inProcess(fractal.WithWorkers(2), fractal.WithCores(2))(t)
	if _, _, ok := built(0).UniformLabels(); !ok {
		t.Fatal("the test graph is not uniform")
	}
	mapped := map[int]*graph.Graph{0: mmapGraph(t, built(0)), 2: mmapGraph(t, built(2))}
	e0, _ := mapped[2].Dict().Lookup("e0")
	labelledPath := pattern.NewBuilder(3).AddEdge(0, 1, e0).AddEdge(1, 2, e0).Build()

	type job struct {
		name       string
		edgeLabels int  // of the graph the job runs on
		index      bool // the job needs edge ids
		run        func(g *fractal.Graph) (string, error)
	}
	count := func(n int64, _ *fractal.Result, err error) (string, error) { return fmt.Sprint(n), err }
	jobs := []job{
		{"triangles", 0, false, func(g *fractal.Graph) (string, error) { return count(Triangles(bg, ctx, g)) }},
		{"cliques4", 0, false, func(g *fractal.Graph) (string, error) { return count(Cliques(bg, ctx, g, 4)) }},
		{"kclist4", 0, false, func(g *fractal.Graph) (string, error) { return count(CliquesKClist(bg, ctx, g, 4)) }},
		{"listing2", 0, false, func(g *fractal.Graph) (string, error) {
			return count(g.VFractoid().Expand(1).Filter(fractal.CliqueFilter).Explore(3).CountCtx(bg))
		}},
		{"labelled-path3", 2, true, func(g *fractal.Graph) (string, error) {
			return count(Query(bg, ctx, g, labelledPath, EngineAuto))
		}},
		{"fsm", 0, true, func(g *fractal.Graph) (string, error) {
			res, err := FSM(bg, ctx, g, 20, FSMOptions{MaxEdges: 2})
			if err != nil {
				return "", err
			}
			sup := map[string]int64{}
			for code, ds := range res.Frequent {
				sup[code] = ds.Support()
			}
			return fmt.Sprint(res.PerLevel, sup), nil
		}},
	}
	for _, engine := range []string{EngineAuto, EnginePlan} {
		for name, p := range map[string]*fractal.Pattern{"square": pattern.Cycle(4), "path4": pattern.Path(4), "star4": pattern.Star(4)} {
			jobs = append(jobs, job{name + "/" + engine, 0, false, func(g *fractal.Graph) (string, error) {
				return count(Query(bg, ctx, g, p, engine))
			}})
		}
		for k := 3; k <= 5; k++ {
			jobs = append(jobs, job{fmt.Sprintf("motifs%d/%s", k, engine), 0, false, func(g *fractal.Graph) (string, error) {
				m, _, err := Motifs(bg, ctx, g, k, engine)
				return fmt.Sprint(m), err
			}})
		}
	}
	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) {
			raw := built(j.edgeLabels)
			got, err := j.run(ctx.FromGraph(raw))
			if err != nil {
				t.Fatal(err)
			}
			if raw.EdgeIndexed() != j.index {
				t.Errorf("edge ids indexed: %v, want %v", raw.EdgeIndexed(), j.index)
			}
			want, err := j.run(ctx.FromGraph(mapped[j.edgeLabels]))
			if err != nil {
				t.Fatal(err)
			}
			if got != want || got == "0" {
				t.Errorf("built graph: %s, mapped: %s", got, want)
			}
		})
	}
}

// TestEdgeAccessorsBuildEdgeIndex: an embedding's Edges and SaveFGR hand
// out edge ids, so they index them, and NumEdges counts them, so it does
// too; pushing, popping, replaying and extending vertices does not.
func TestEdgeAccessorsBuildEdgeIndex(t *testing.T) {
	for name, read := range map[string]func(*subgraph.Embedding) int{
		"Edges":    func(e *subgraph.Embedding) int { return len(e.Edges()) },
		"NumEdges": (*subgraph.Embedding).NumEdges,
	} {
		raw := built(0)
		e := subgraph.New(raw, subgraph.VertexInduced, nil)
		u := subgraph.Word(raw.Neighbors(0)[0])
		e.Push(0)
		e.Push(u)
		if exts, _ := e.Extensions(nil); len(exts) > 0 {
			e.Push(exts[0])
			e.Pop()
		}
		e.Replay([]subgraph.Word{0, u})
		if raw.EdgeIndexed() {
			t.Fatal("Push, Pop, Replay or Extensions of a vertex-induced embedding indexed the edge ids")
		}
		n := read(e)
		if !raw.EdgeIndexed() {
			t.Errorf("%s read edges without the index", name)
		}
		if want := raw.EdgesBetween(0, graph.VertexID(u), nil); n != len(want) || fmt.Sprint(e.Edges()) != fmt.Sprint(want) {
			t.Errorf("%s: %d edges %v, want %v", name, n, e.Edges(), want)
		}
	}

	raw := built(0)
	mmapGraph(t, raw)
	if !raw.EdgeIndexed() {
		t.Error("SaveFGR wrote the edge ids without the index")
	}
}
