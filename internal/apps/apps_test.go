package apps

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"
	"fractal/internal/workload"
)

func testCtx(t *testing.T) *fractal.Context {
	t.Helper()
	ctx, err := fractal.NewContext(fractal.WithCores(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return ctx
}

// k4Pendant is a 4-clique with a pendant vertex.
func k4Pendant() *graph.Graph {
	b := graph.NewBuilder("k4p")
	for i := 0; i < 5; i++ {
		b.AddVertex(graph.Label(i % 2))
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	b.MustAddEdge(3, 4)
	return b.Build()
}

func TestMotifs(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(workload.Relabel(k4Pendant(), "k4p-sl"))
	m, res, err := Motifs(bg, ctx, g, 3, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Steps) == 0 {
		t.Fatal("no step reports")
	}
	// Unlabeled: exactly two 3-vertex motif classes, triangle and path.
	if len(m) != 2 {
		t.Fatalf("found %d motif classes, want 2", len(m))
	}
	var triangles, paths int64
	for _, pc := range m {
		if pc.Pat.NumEdges() == 3 {
			triangles = pc.Count
		} else {
			paths = pc.Count
		}
	}
	if triangles != 4 {
		t.Errorf("triangles=%d, want 4", triangles)
	}
	// Paths: in K4 every ordered middle choice gives C(3,2)=3 per center ->
	// 4 centers × 3 = 12 non-induced, but induced paths inside K4 are 0;
	// induced 3-paths must use the pendant: {x,3,4} for x in {0,1,2} = 3.
	if paths != 3 {
		t.Errorf("paths=%d, want 3", paths)
	}
	if m.Total() != 7 {
		t.Errorf("total=%d, want 7", m.Total())
	}
}

func TestCliquesAndKClistAgree(t *testing.T) {
	ctx := testCtx(t)
	graphs := []*graph.Graph{
		k4Pendant(),
		workload.ErdosRenyi("er", 60, 240, 1, 5),
		workload.BarabasiAlbert("ba", 80, 4, 1, 6),
		// The subgraph oracle's multigraph: parallel edges repeat neighbours.
		decompMultigraph("oracle-mg", 60, 260, 3, 4),
	}
	for _, raw := range graphs {
		g := ctx.FromGraph(raw)
		for k := 3; k <= 5; k++ {
			plain, _, err := Cliques(bg, ctx, g, k)
			if err != nil {
				t.Fatal(err)
			}
			fast, _, err := CliquesKClist(bg, ctx, g, k)
			if err != nil {
				t.Fatal(err)
			}
			if plain != fast {
				t.Errorf("%s %d-cliques: plain=%d kclist=%d", raw.Name(), k, plain, fast)
			}
		}
	}
}

// TestKClistSteadyStateAllocs: once every level's buffer has grown, a
// push, the extensions it yields and the pop allocate nothing.
func TestKClistSteadyStateAllocs(t *testing.T) {
	g := workload.BarabasiAlbert("kclist-alloc", 500, 8, 1, 9)
	e := subgraph.NewCustom(g, NewKClistEnum())
	var exts, next []subgraph.Word
	walk := func() {
		for v := subgraph.Word(0); v < 50; v++ {
			e.Push(v)
			exts, _ = e.Extensions(exts[:0])
			for _, w := range exts[:min(len(exts), 3)] {
				e.Push(w)
				if next, _ = e.Extensions(next[:0]); len(next) > 0 {
					e.Push(next[0])
					e.Pop()
				}
				e.Pop()
			}
			e.Pop()
		}
	}
	walk() // warm up: every level reaches its widest set
	if allocs := testing.AllocsPerRun(20, walk); allocs != 0 {
		t.Errorf("KClist allocates %.1f times per walk in steady state, want 0", allocs)
	}
}

func TestTrianglesKnown(t *testing.T) {
	ctx := testCtx(t)
	n, _, err := Triangles(bg, ctx, ctx.FromGraph(k4Pendant()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("triangles=%d, want 4", n)
	}
}

// fsmTestGraph: two labeled triangle "motifs" repeated, plus noise, so
// label-A-edge patterns are frequent and others are not.
func fsmTestGraph() *graph.Graph {
	b := graph.NewBuilder("fsm")
	// 6 disjoint A-A edges (pattern support 12 vertices -> MNI 6).
	for i := 0; i < 6; i++ {
		u := b.AddVertex(1)
		v := b.AddVertex(1)
		b.MustAddEdge(u, v)
	}
	// 2 B-B edges (infrequent at threshold 3).
	for i := 0; i < 2; i++ {
		u := b.AddVertex(2)
		v := b.AddVertex(2)
		b.MustAddEdge(u, v)
	}
	// 4 A-A-A paths to give a frequent 2-edge pattern.
	for i := 0; i < 4; i++ {
		u := b.AddVertex(1)
		v := b.AddVertex(1)
		w := b.AddVertex(1)
		b.MustAddEdge(u, v)
		b.MustAddEdge(v, w)
	}
	return b.Build()
}

func TestFSM(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(fsmTestGraph())
	res, err := FSM(bg, ctx, g, 3, FSMOptions{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLevel) == 0 || res.PerLevel[0] == 0 {
		t.Fatal("no frequent single-edge patterns")
	}
	// A-A edges: 14 of them (6 pairs + 8 in paths), support >= 3. B-B: 2,
	// infrequent. So exactly one frequent 1-edge pattern.
	if res.PerLevel[0] != 1 {
		t.Errorf("frequent 1-edge patterns=%d, want 1", res.PerLevel[0])
	}
	// A-A-A path appears 4 times with 12 distinct vertices: frequent.
	if len(res.PerLevel) < 2 || res.PerLevel[1] != 1 {
		t.Errorf("frequent 2-edge patterns=%v, want second level = 1", res.PerLevel)
	}
	for code, ds := range res.Frequent {
		if ds.Support() < 3 {
			t.Errorf("pattern %q has support %d < 3", code, ds.Support())
		}
	}
}

// TestFSMGraphReductionPreservesResults: on a community graph whose deeper
// levels mine the frequent-edge graph, FSM's keys, supports and domains are
// Listing 3's on the input graph.
func TestFSMGraphReductionPreservesResults(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(workload.Community("c", 6, 15, 6, 0.8, 4, 17))
	got, err := FSM(bg, ctx, g, 8, FSMOptions{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	fsmEqualsOracle(t, "community", got, fsmOracle(t, g, 8, 2))
}

func TestQuerySuite(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(k4Pendant())
	// K4 + pendant: triangles=4, squares=3, diamonds=6? Diamond = 4-cycle
	// with chord: each pair of non-adjacent... in K4 every 4-subset is the
	// whole K4; diamonds in K4: choose the non-chord pair: C(4,2)=6 edge
	// subsets of 5 edges -> 3 distinct diamonds per 4-clique... verify via
	// an independent pattern-counting identity instead: matches(clique4)=1.
	q := SEEDQueries()
	if len(q) != 8 {
		t.Fatalf("suite has %d queries", len(q))
	}
	tri, _, err := Query(bg, ctx, g, pattern.Triangle(), EnginePlan)
	if err != nil {
		t.Fatal(err)
	}
	if tri != 4 {
		t.Errorf("triangle matches=%d, want 4", tri)
	}
	k4, _, err := Query(bg, ctx, g, pattern.Clique(4), EnginePlan)
	if err != nil {
		t.Fatal(err)
	}
	if k4 != 1 {
		t.Errorf("4-clique matches=%d, want 1", k4)
	}
	sq, _, err := Query(bg, ctx, g, pattern.Cycle(4), EnginePlan)
	if err != nil {
		t.Fatal(err)
	}
	if sq != 3 {
		t.Errorf("square matches=%d, want 3", sq)
	}
	var streamed atomic.Int64
	if _, err := QueryVisit(bg, ctx, g, pattern.Triangle(), func(e *fractal.Subgraph) {
		streamed.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if streamed.Load() != 4 {
		t.Errorf("QueryVisit streamed %d, want 4", streamed.Load())
	}
}

// keywordTestGraph builds a tiny attributed graph with known covers for
// query {a, b}.
func keywordTestGraph() *graph.Graph {
	b := graph.NewBuilder("kw")
	d := b.Dict()
	a, kb, c := d.Intern("a"), d.Intern("b"), d.Intern("c")
	v := make([]graph.VertexID, 6)
	for i := range v {
		v[i] = b.AddVertex()
	}
	e01 := b.MustAddEdge(v[0], v[1]) // a
	e12 := b.MustAddEdge(v[1], v[2]) // b
	e23 := b.MustAddEdge(v[2], v[3]) // c
	e34 := b.MustAddEdge(v[3], v[4]) // a,b  (covers alone)
	e45 := b.MustAddEdge(v[4], v[5]) // b
	b.SetEdgeKeywords(e01, a)
	b.SetEdgeKeywords(e12, kb)
	b.SetEdgeKeywords(e23, c)
	b.SetEdgeKeywords(e34, a, kb)
	b.SetEdgeKeywords(e45, kb)
	return b.Build()
}

func TestKeywordSearch(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(keywordTestGraph())
	res, err := KeywordSearch(bg, ctx, g, []string{"a", "b"}, KeywordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Covers of {a,b} by connected minimal edge sets:
	//  {e01,e12} (a then b, adjacent), {e34} (alone);
	//  {e34,e45}? e45 adds b but b already covered by e34 -> pruned.
	//  {e01,...}: e01-e12 only adjacent pair with a,b.
	if res.Matches != 2 {
		t.Errorf("matches=%d, want 2", res.Matches)
	}
	if res.EC == 0 {
		t.Error("no extension cost recorded")
	}

	// With graph reduction: same matches, smaller graph, lower EC.
	red, err := KeywordSearch(bg, ctx, g, []string{"a", "b"}, KeywordOptions{GraphReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if red.Matches != res.Matches {
		t.Errorf("reduction changed matches: %d vs %d", red.Matches, res.Matches)
	}
	if red.GraphE >= res.GraphE {
		t.Errorf("reduction did not shrink edges: %d vs %d", red.GraphE, res.GraphE)
	}
	if red.EC > res.EC {
		t.Errorf("reduction increased EC: %d vs %d", red.EC, res.EC)
	}

	if _, err := KeywordSearch(bg, ctx, g, []string{"missing"}, KeywordOptions{}); err == nil {
		t.Error("unknown keyword accepted")
	}
}

func TestKeywordSearchOnWikidataAnalog(t *testing.T) {
	if testing.Short() {
		t.Skip("wikidata analog generation in -short mode")
	}
	ctx := testCtx(t)
	raw, err := workload.ByName("wikidata")
	if err != nil {
		t.Fatal(err)
	}
	g := ctx.FromGraph(raw)
	q := workload.KeywordQueries()[0]
	full, err := KeywordSearch(bg, ctx, g, q.Keywords, KeywordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := KeywordSearch(bg, ctx, g, q.Keywords, KeywordOptions{GraphReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Matches != red.Matches {
		t.Errorf("reduction changed matches: %d vs %d", full.Matches, red.Matches)
	}
	if red.GraphE >= full.GraphE || red.GraphV >= full.GraphV {
		t.Errorf("no reduction: V %d->%d E %d->%d", full.GraphV, red.GraphV, full.GraphE, red.GraphE)
	}
	if red.EC >= full.EC {
		t.Errorf("EC not reduced: %d -> %d", full.EC, red.EC)
	}
}

func TestTrianglesApprox(t *testing.T) {
	ctx := testCtx(t)
	raw := workload.ErdosRenyi("apx", 150, 1200, 1, 77)
	g := ctx.FromGraph(raw)
	exact, _, err := Triangles(bg, ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if exact == 0 {
		t.Skip("degenerate graph")
	}
	// p=1 must be exact.
	full, err := TrianglesApprox(bg, ctx, g, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if int64(full) != exact {
		t.Errorf("p=1 estimate %v != exact %d", full, exact)
	}
	// Average several p=0.7 estimates: within 40%% of the truth.
	var sum float64
	const runs = 5
	for i := int64(0); i < runs; i++ {
		est, err := TrianglesApprox(bg, ctx, g, 0.7, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / runs
	if mean < 0.6*float64(exact) || mean > 1.4*float64(exact) {
		t.Errorf("sampled mean %.0f too far from exact %d", mean, exact)
	}
}

func TestCliqueCommunities(t *testing.T) {
	ctx := testCtx(t)
	// Two K4s sharing nothing, bridged by a single edge: two 3-clique
	// communities.
	b := graph.NewBuilder("cc")
	for i := 0; i < 8; i++ {
		b.AddVertex()
	}
	for _, base := range []int{0, 4} {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.MustAddEdge(graph.VertexID(base+i), graph.VertexID(base+j))
			}
		}
	}
	b.MustAddEdge(3, 4) // bridge
	g := ctx.FromGraph(b.Build())

	comms, _, err := CliqueCommunities(bg, ctx, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 2 {
		t.Fatalf("communities=%d, want 2", len(comms))
	}
	for _, c := range comms {
		if len(c) != 4 {
			t.Errorf("community size=%d, want 4: %v", len(c), c)
		}
	}
	// At k=4 the two K4s remain separate single-clique communities.
	comms, _, err = CliqueCommunities(bg, ctx, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 2 {
		t.Errorf("k=4 communities=%d, want 2", len(comms))
	}
	// Overlap: two K4s sharing a triangle percolate into one at k=3.
	b2 := graph.NewBuilder("ov")
	for i := 0; i < 5; i++ {
		b2.AddVertex()
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b2.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	b2.MustAddEdge(1, 4)
	b2.MustAddEdge(2, 4)
	b2.MustAddEdge(3, 4)
	comms, _, err = CliqueCommunities(bg, ctx, ctx.FromGraph(b2.Build()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 1 || len(comms[0]) != 5 {
		t.Errorf("overlapping K4s: %v, want one 5-vertex community", comms)
	}
}

func TestSignificanceProfile(t *testing.T) {
	ctx := testCtx(t)
	// A graph stuffed with triangles must have a positive triangle z-score
	// against sparse ER nulls of equal size.
	b := graph.NewBuilder("sig")
	for i := 0; i < 30; i++ {
		b.AddVertex()
	}
	for i := 0; i < 10; i++ {
		u := graph.VertexID(3 * i)
		v := graph.VertexID(3*i + 1)
		w := graph.VertexID(3*i + 2)
		b.MustAddEdge(u, v)
		b.MustAddEdge(v, w)
		b.MustAddEdge(u, w)
	}
	g := ctx.FromGraph(b.Build())
	prof, err := SignificanceProfile(bg, ctx, g, 3, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	foundTriangle := false
	for _, sig := range prof {
		if sig.Pat != nil && sig.Pat.NumEdges() == 3 {
			foundTriangle = true
			if sig.Count != 10 {
				t.Errorf("triangle count=%d, want 10", sig.Count)
			}
			if sig.ZScore <= 0 {
				t.Errorf("triangle z-score=%f, want positive", sig.ZScore)
			}
		}
	}
	if !foundTriangle {
		t.Error("triangle motif missing from profile")
	}
}

// TestDriversHonourCancelledContext pins the contract behind the CLI's
// "interruption cancels the run cleanly": every driver that executes a
// closure-composed fractoid takes the caller's context and passes it to the
// runtime, so a context that is already cancelled fails the run with an
// error wrapping context.Canceled instead of enumerating to the end.
func TestDriversHonourCancelledContext(t *testing.T) {
	fc := testCtx(t)
	kw := fc.FromGraph(keywordTestGraph())
	g := fc.FromGraph(workload.Relabel(k4Pendant(), "k4p-sl"))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func(ctx context.Context) error{
		"KeywordSearch": func(ctx context.Context) error {
			_, err := KeywordSearch(ctx, fc, kw, []string{"a", "b"}, KeywordOptions{})
			return err
		},
		"CliqueCommunities": func(ctx context.Context) error { _, _, err := CliqueCommunities(ctx, fc, g, 3); return err },
		"TrianglesApprox":   func(ctx context.Context) error { _, err := TrianglesApprox(ctx, fc, g, 1.0, 1); return err },
		"QueryVisit": func(ctx context.Context) error {
			_, err := QueryVisit(ctx, fc, g, pattern.Triangle(), func(*fractal.Subgraph) {})
			return err
		},
	} {
		if err := run(bg); err != nil {
			t.Errorf("%s under a live context: %v", name, err)
		}
		if err := run(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err=%v, want one wrapping context.Canceled", name, err)
		}
	}
}
