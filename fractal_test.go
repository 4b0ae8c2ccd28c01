package fractal

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

var bg = context.Background()

func testContext(t *testing.T) *Context {
	t.Helper()
	ctx, err := NewContext(WithCores(2), WithWS(WSBoth))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return ctx
}

// k4Graph is a 4-clique plus a pendant vertex: 4 triangles, one 4-clique.
func k4Graph() *graph.Graph {
	b := graph.NewBuilder("k4")
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

func TestTrianglesQuickstart(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	n, res, err := g.VFractoid().Expand(3).Filter(CliqueFilter).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("triangles=%d, want 4", n)
	}
	if res.TotalEC() == 0 {
		t.Error("no extension cost recorded")
	}
}

func TestExploreCliques(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	// Listing 2: expand(1).filter(clique).explore(k).
	for k, want := range map[int]int64{2: 7, 3: 4, 4: 1} {
		n, _, err := g.VFractoid().Expand(1).Filter(CliqueFilter).Explore(k).CountCtx(bg)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("%d-cliques=%d, want %d", k, n, want)
		}
	}
	bad := g.VFractoid().Expand(1).Explore(0)
	if bad.Err() == nil {
		t.Error("explore(0) accepted")
	}
	if _, _, err := bad.CountCtx(bg); err == nil {
		t.Error("executing a broken fractoid succeeded")
	}
}

// TestClassFiltersBeyondTheVerdictBits: a class filter's verdict lives in one
// of 32 bits of a memo entry, so the 33rd filter of a workflow — composed
// directly or by Explore — is a composition error, not a filter that passes
// everything.
func TestClassFiltersBeyondTheVerdictBits(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	pass := func(*PatternClass, *agg.Aggregation[string, int64]) bool { return true }
	f := Aggregate(g.EFractoid().Expand(1), "a", func(*Subgraph) string { return "" }, func(*Subgraph) int64 { return 1 }, agg.SumInt64, nil)
	for i := 0; i < 32; i++ {
		f = FilterAggClass(f, "a", pass)
	}
	if f.Err() != nil {
		t.Fatalf("32 class filters: %v", f.Err())
	}
	if n, _, err := f.CountCtx(bg); err != nil || n != 7 {
		t.Errorf("32 passing class filters over the graph's edges: %d, %v, want 7", n, err)
	}
	if over := FilterAggClass(f, "a", pass); over.Err() == nil {
		t.Error("a 33rd class filter accepted")
	} else if _, err := over.Job(); err == nil {
		t.Error("a fractoid with 33 class filters exports a job")
	}
	if FilterAggClass(f.Explore(1), "a", pass).Err() == nil || FilterAggClass(g.EFractoid().Expand(1), "a", pass).Explore(33).Err() == nil {
		t.Error("Explore composed more than 32 class filters unnoticed")
	}
	if FilterAggSubPatterns[int64](g.VFractoid().Expand(2), "a").Err() == nil {
		t.Error("sub-pattern pruning accepted on a vertex-induced fractoid")
	}
}

func TestMotifsAggregation(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	// Listing 1: 3-vertex motifs.
	frac := Aggregate(g.VFractoid().Expand(3), "motifs",
		func(e *Subgraph) string { return ctx.PatternOf(e).Code },
		func(e *Subgraph) int64 { return 1 },
		agg.SumInt64, nil)
	m, res, err := AggregationMapCtx[string, int64](bg, frac, "motifs")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 1 {
		t.Errorf("motifs should be a single step, got %d", len(res.Steps))
	}
	var total int64
	for _, v := range m {
		total += v
	}
	// 3-vertex connected induced subgraphs of k4+pendant:
	// triangles: 4; paths: 3 (choose 2 of {0,1,2} with 3 and 4)... count
	// directly instead:
	want, _, err := g.VFractoid().Expand(3).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Errorf("motif total=%d, want %d", total, want)
	}
	if len(m) != 2 { // triangle and path (labels ignored? labels differ!)
		// With labels 0/1 on vertices, motif classes split further; accept
		// >= 2 distinct patterns.
		if len(m) < 2 {
			t.Errorf("found %d motif classes, want >= 2", len(m))
		}
	}
}

func TestPFractoidQuery(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	n, _, err := g.PFractoid(pattern.Triangle()).Expand(3).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("triangle query matched %d, want 4", n)
	}
	// Squares: a 4-clique contains 3 squares (4-cycles).
	n, _, err = g.PFractoid(pattern.Cycle(4)).Expand(4).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("square query matched %d, want 3", n)
	}
	// Broken pattern.
	disc := pattern.NewBuilder(2).Build()
	if g.PFractoid(disc).Err() == nil {
		t.Error("disconnected pattern accepted")
	}
}

func TestEFractoidAndFilterAgg(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())

	bootstrap := Aggregate(g.EFractoid().Expand(1), "support",
		func(e *Subgraph) string { return ctx.PatternOf(e).Code },
		func(e *Subgraph) int64 { return 1 },
		agg.SumInt64, nil)
	res, err := bootstrap.RunCtx(bg)
	if err != nil {
		t.Fatal(err)
	}

	// Grow only embeddings whose single-edge pattern appeared >= 3 times.
	grown := FilterAgg(g.EFractoid().Expand(1).WithAggregations(res.Aggregations), "support",
		func(e *Subgraph, a *agg.Aggregation[string, int64]) bool {
			v, _ := a.Get(ctx.PatternOf(e).Code)
			return v >= 3
		}).Expand(1)
	n, res2, err := grown.CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no embeddings survived the aggregation filter")
	}
	executed := 0
	for _, s := range res2.Steps {
		if !s.Skipped {
			executed++
		}
	}
	if executed != 1 {
		t.Errorf("precomputed filter must not split: %d executed steps", executed)
	}
}

func TestGraphReductionOperators(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	reduced := g.VFilter(func(v graph.VertexID, _ *graph.Graph) bool { return v < 4 })
	if reduced.Stats().V != 4 {
		t.Errorf("VFilter kept %d vertices, want 4", reduced.Stats().V)
	}
	n, _, err := reduced.VFractoid().Expand(3).Filter(CliqueFilter).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("triangles in reduced graph=%d, want 4", n)
	}
	e := g.EFilter(func(id graph.EdgeID, gr *graph.Graph) bool {
		ed := gr.EdgeByID(id)
		return ed.Src != 0 // drop vertex 0's edges
	})
	if e.Stats().E != 4 { // of 7 edges, 0-1,0-2,0-3 dropped
		t.Errorf("EFilter kept %d edges, want 4", e.Stats().E)
	}
}

func TestMNISupportHelper(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	frac := Aggregate(g.EFractoid().Expand(1), "support",
		func(e *Subgraph) string { return ctx.PatternOf(e).Code },
		func(e *Subgraph) *DomainSupport { return ctx.MNISupport(e, 2) },
		agg.ReduceDomainSupport,
		func(k string, v *DomainSupport) bool { return v.HasEnoughSupport() })
	m, _, err := AggregationMapCtx[string, *DomainSupport](bg, frac, "support")
	if err != nil {
		t.Fatal(err)
	}
	for code, ds := range m {
		if ds.Support() < 2 {
			t.Errorf("pattern %q kept with support %d < 2", code, ds.Support())
		}
		if ds.Pat == nil {
			t.Errorf("pattern %q lost its representative", code)
		}
	}
	if len(m) == 0 {
		t.Error("no frequent single-edge patterns in k4 graph")
	}
}

func TestLoadGraphAdjacencyList(t *testing.T) {
	ctx := testContext(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tri.graph")
	if err := os.WriteFile(path, []byte("0 1 1 2\n1 1 0 2\n2 1 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fg, err := ctx.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := fg.VFractoid().Expand(3).Filter(CliqueFilter).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("triangles=%d, want 1", n)
	}
	if _, err := ctx.LoadGraph(filepath.Join(dir, "missing.graph")); err == nil {
		t.Error("loading a missing file succeeded")
	}
	// The same triangle with edge 0-1 listed by vertex 1 alone used to load
	// as |E|=0 and count no triangle; it is refused, by file, line and reason.
	path = filepath.Join(dir, "onesided.graph")
	if err := os.WriteFile(path, []byte("0 1\n1 1 0\n2 1 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var pe *ParseError
	if _, err := ctx.LoadGraph(path); !errors.As(err, &pe) || pe.File != "onesided" || pe.Line != 2 {
		t.Errorf("one-sided adjacency list: err = %v, want a *ParseError at onesided:2", err)
	}
}

func TestVisitStreamsAndSubgraphs(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	var edges atomic.Int64
	_, err := g.EFractoid().Expand(1).SubgraphsCtx(bg, func(e *Subgraph) {
		edges.Add(1)
		if e.NumEdges() != 1 {
			t.Error("single-edge embedding has wrong size")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if edges.Load() != 7 {
		t.Errorf("streamed %d edges, want 7", edges.Load())
	}
}

// idOrderCliques is a toy custom extender: extension candidates are the
// current last vertex's larger-ID neighbors intersected with common
// adjacency — i.e. a KClist-style clique enumerator (the real one lives in
// internal/apps).
type idOrderCliques struct {
	g     *graph.Graph
	cands [][]subgraph.Word
}

func (x *idOrderCliques) Clone() subgraph.CustomExtender { return &idOrderCliques{} }
func (x *idOrderCliques) Reset(g *graph.Graph)           { x.g, x.cands = g, x.cands[:0] }

func (x *idOrderCliques) Extensions(e *Subgraph, dst []subgraph.Word) ([]subgraph.Word, int) {
	top := x.cands[len(x.cands)-1]
	return append(dst, top...), len(top)
}

func (x *idOrderCliques) Pushed(e *Subgraph, w subgraph.Word) {
	v := graph.VertexID(w)
	var next []subgraph.Word
	if len(x.cands) == 0 {
		for _, u := range x.g.Neighbors(v) {
			if u > v {
				next = append(next, subgraph.Word(u))
			}
		}
	} else {
		for _, c := range x.cands[len(x.cands)-1] {
			if c > w && x.g.HasEdge(v, graph.VertexID(c)) {
				next = append(next, c)
			}
		}
	}
	x.cands = append(x.cands, next)
}

func (x *idOrderCliques) Popped(e *Subgraph) { x.cands = x.cands[:len(x.cands)-1] }

func TestCustomExtender(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	n, _, err := g.VFractoidWith(&idOrderCliques{}).Expand(3).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("custom clique enumerator found %d triangles, want 4", n)
	}
}

func TestContextConfigAndDefaults(t *testing.T) {
	ctx, err := NewContext(WithConfig(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	cfg := ctx.Config()
	if cfg.Workers != 1 || cfg.CoresPerWorker != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.WS != WSBoth {
		t.Errorf("zero config should default to hierarchical WS, got %v", cfg.WS)
	}
}

// denseTestGraph builds a deterministic dense graph large enough that a
// deep clique exploration runs for far longer than any test will wait.
func denseTestGraph(n int) *graph.Graph {
	b := graph.NewBuilder("dense")
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(i % 3))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (i*31+j*17)%10 < 4 {
				b.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
			}
		}
	}
	return b.Build()
}

// TestCancellationReleasesGoroutines is the public-API acceptance test for
// the tentpole: a long clique job is cancelled once it has started, the
// error wraps context.Canceled with a partial Cancelled step report, the
// Context remains usable for a follow-up job, and after Close no runtime
// goroutines linger.
func TestCancellationReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, err := NewContext(WithWorkers(2), WithCores(2))
	if err != nil {
		t.Fatal(err)
	}
	g := ctx.FromGraph(denseTestGraph(70))

	// The job cancels itself at its first filter call, mid-step whatever
	// the host's speed.
	cctx, cancel := context.WithCancel(context.Background())
	cancelling := func(e *Subgraph) bool {
		cancel()
		return CliqueFilter(e)
	}
	n, res, err := g.VFractoid().Expand(1).Filter(cancelling).Explore(4).CountCtx(cctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want wrapped context.Canceled", err)
	}
	if res == nil || len(res.Steps) == 0 {
		t.Fatal("no partial result from cancelled job")
	}
	if last := res.Steps[len(res.Steps)-1]; !last.Cancelled {
		t.Errorf("last step not marked Cancelled: %+v", last)
	}
	_ = n // partial count: any value is legitimate

	// The Context must remain usable after a cancelled job.
	small := ctx.FromGraph(k4Graph())
	n2, _, err := small.VFractoid().Expand(3).Filter(CliqueFilter).CountCtx(bg)
	if err != nil {
		t.Fatalf("job after cancellation failed: %v", err)
	}
	if n2 != 4 {
		t.Errorf("post-cancellation triangles=%d, want 4", n2)
	}

	ctx.Close()
	// Goroutine counts settle asynchronously (transport readers observe
	// closed connections); retry briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExpandZeroErrors verifies Expand rejects n < 1 like Explore does,
// instead of silently doing nothing.
func TestExpandZeroErrors(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	for _, n := range []int{0, -1} {
		if _, _, err := g.VFractoid().Expand(n).CountCtx(bg); err == nil {
			t.Errorf("Expand(%d).CountCtx succeeded, want error", n)
		}
		if err := g.VFractoid().Expand(n).Err(); err == nil {
			t.Errorf("Expand(%d).Err() == nil, want error", n)
		}
	}
}

// TestPlanAPI covers the public compiled-plan surface: CompilePlan,
// CompileInducedPlan, PFractoidPlan plan reuse across graphs, Explain, and
// CombineResults.
func TestPublicPatternConstructors(t *testing.T) {
	// The exported constructors must agree with the internal ones so a
	// caller outside the module (which cannot import internal/pattern)
	// gets identical plans.
	ctx := testContext(t)
	if got, want := ctx.PatternCanon(PatternClique(4)).Code, ctx.PatternCanon(pattern.Clique(4)).Code; got != want {
		t.Errorf("PatternClique(4) canon %q != internal %q", got, want)
	}
	if got, want := ctx.PatternCanon(PatternCycle(5)).Code, ctx.PatternCanon(pattern.Cycle(5)).Code; got != want {
		t.Errorf("PatternCycle(5) canon %q != internal %q", got, want)
	}
	built := NewPatternBuilder(3).
		SetVertexLabel(0, 2).
		AddEdge(0, 1, NoLabel).
		AddEdge(1, 2, NoLabel).
		Build()
	if built.NumVertices() != 3 || built.VertexLabel(0) != 2 || !built.Connected() {
		t.Errorf("builder pattern malformed: %v", built)
	}
	if _, err := CompilePlan(PatternPath(4)); err != nil {
		t.Errorf("PatternPath(4) does not compile: %v", err)
	}
	pats, err := ConnectedPatterns(4)
	if err != nil || len(pats) != 6 {
		t.Errorf("ConnectedPatterns(4) = %d patterns, err=%v; want 6", len(pats), err)
	}
	if PatternTriangle().NumEdges() != 3 {
		t.Errorf("PatternTriangle: %v", PatternTriangle())
	}
}

func TestPlanAPI(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())

	plan, err := CompilePlan(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumRestrictions() == 0 {
		t.Error("triangle plan has no symmetry-breaking restrictions")
	}
	if plan.Explain() == "" {
		t.Error("empty Explain")
	}

	// The same compiled plan runs on several graphs.
	for _, raw := range []*graph.Graph{k4Graph(), denseTestGraph(30)} {
		fg := ctx.FromGraph(raw)
		n, _, err := fg.PFractoidPlan(plan).Expand(3).CountCtx(bg)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fg.VFractoid().Expand(3).Filter(CliqueFilter).CountCtx(bg)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("%s: plan triangles=%d, canonical=%d", raw.Name(), n, want)
		}
	}

	// Induced plans reject embeddings with extra edges: an induced 3-path
	// match excludes triangles.
	pb := pattern.NewBuilder(3)
	pb.AddEdge(0, 1, pattern.NoLabel)
	pb.AddEdge(1, 2, pattern.NoLabel)
	ip, err := CompileInducedPlan(pb.Build())
	if err != nil {
		t.Fatal(err)
	}
	if !ip.Induced {
		t.Error("CompileInducedPlan lost the Induced flag")
	}
	got, _, err := g.PFractoidPlan(ip).Expand(3).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	// k4+pendant: induced 3-paths must use the pendant: {x,3,4}, x in
	// {0,1,2} = 3 (inside K4 every triple is a triangle).
	if got != 3 {
		t.Errorf("induced 3-path count=%d, want 3", got)
	}

	if g.PFractoidPlan(nil).Err() == nil {
		t.Error("nil plan accepted")
	}
	if _, err := CompilePlan(pattern.NewBuilder(2).Build()); err == nil {
		t.Error("disconnected pattern compiled")
	}
}

// TestDecompCountSaturatedPairs holds the square's decomposition, whose
// distance-2 pass counts common neighbors in one byte per vertex, to the
// plan engine's count on pairs of hubs sharing 254 to 300 neighbors, where
// those counters saturate and the kernel recounts, with parallel spokes.
func TestDecompCountSaturatedPairs(t *testing.T) {
	b := graph.NewBuilder("fan")
	for i, shared := range []int{254, 255, 256, 300} {
		h0, h1 := b.AddVertex(), b.AddVertex()
		if i%2 == 0 {
			b.MustAddEdge(h0, h1)
		}
		for s := 0; s < shared; s++ {
			w := b.AddVertex()
			b.MustAddEdge(h0, w)
			b.MustAddEdge(w, h1)
			if s%7 == 0 {
				b.MustAddEdge(w, h1)
			}
		}
	}
	g := testContext(t).FromGraph(b.Build())
	dp, err := CompileDecomp(pattern.Cycle(4))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := g.DecompCountCtx(bg, dp)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := g.PFractoid(pattern.Cycle(4)).Expand(4).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	// Each pair of hubs sharing s spokes closes C(s, 2) squares.
	if got != want || want != 254*253/2+255*254/2+256*255/2+300*299/2 {
		t.Errorf("squares: decomposition %d, plan %d, want C(s,2) summed over the hub pairs", got, want)
	}
}

// A chain with output primitives but no Expand must fail with a typed
// error, not panic the DFS engine (regression: CountCtx on a bare
// PFractoidPlan seeded roots into a step with no extension levels).
func TestNoExpandRejected(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	plan, err := CompilePlan(PatternClique(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.PFractoidPlan(plan).CountCtx(bg); err == nil {
		t.Error("Count without Expand accepted")
	}
	if _, err := g.VFractoid().Visit(func(*Subgraph) {}).RunCtx(context.Background()); err == nil {
		t.Error("Visit without Expand accepted")
	}
	// Effect-free no-extension chains stay runnable: steps report Skipped.
	res, err := g.VFractoid().RunCtx(context.Background())
	if err != nil {
		t.Fatalf("effect-free chain: %v", err)
	}
	for _, s := range res.Steps {
		if !s.Skipped {
			t.Errorf("step %d not skipped: %+v", s.Index, s)
		}
	}
}

func TestCombineResults(t *testing.T) {
	ctx := testContext(t)
	g := ctx.FromGraph(k4Graph())
	_, r1, err := g.VFractoid().Expand(2).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := g.VFractoid().Expand(3).CountCtx(bg)
	if err != nil {
		t.Fatal(err)
	}
	c := CombineResults(r1, nil, r2)
	if c == nil {
		t.Fatal("nil combined result")
	}
	if len(c.Steps) != len(r1.Steps)+len(r2.Steps) {
		t.Errorf("steps: %d, want %d", len(c.Steps), len(r1.Steps)+len(r2.Steps))
	}
	if c.TotalEC() != r1.TotalEC()+r2.TotalEC() {
		t.Errorf("TotalEC: %d, want %d", c.TotalEC(), r1.TotalEC()+r2.TotalEC())
	}
	if c.Wall != r1.Wall+r2.Wall {
		t.Errorf("Wall: %v, want %v", c.Wall, r1.Wall+r2.Wall)
	}
	if c.Report == nil || len(c.Report.Steps) != len(c.Steps) {
		t.Error("combined report missing or inconsistent")
	}
	if CombineResults(nil, nil) != nil {
		t.Error("all-nil input must yield nil")
	}
}

// TestPatternRepOf checks the explicit-pattern representative is shared
// with the embedding-derived one.
func TestPatternRepOf(t *testing.T) {
	ctx := testContext(t)
	a := ctx.PatternRepOf(pattern.Triangle())
	b := ctx.PatternRepOf(pattern.Cycle(3))
	if a != b {
		t.Error("isomorphic patterns got different representatives")
	}
}

// TestCountIsOneAggregation pins the single counting mechanism: CountCtx
// returns the same count with and without step retries — it no longer picks
// between a visiting counter and an aggregation — on one and on two
// loopback workers, and what crosses the wire is the agg.Int64Sums scalar
// form (tag, arity 1, one varint), not a gob-encoded map.
func TestCountIsOneAggregation(t *testing.T) {
	raw := denseTestGraph(30)
	var want int64
	for _, workers := range []int{1, 2} {
		for _, retries := range []int{0, 2} {
			t.Run(fmt.Sprintf("%dx2-retries%d", workers, retries), func(t *testing.T) {
				ctx, err := NewContext(WithWorkers(workers), WithCores(2), WithStepRetries(retries))
				if err != nil {
					t.Fatal(err)
				}
				defer ctx.Close()
				n, res, err := ctx.FromGraph(raw).VFractoid().Expand(3).Filter(CliqueFilter).CountCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Fatal("degenerate test graph: no triangles")
				}
				if want == 0 {
					want = n
				}
				if n != want {
					t.Errorf("count=%d, want %d as in the first configuration", n, want)
				}
				store, ok := res.Aggregations.Get(step.CountAgg)
				if !ok {
					t.Fatal("the count is not in the result's aggregations")
				}
				sums, ok := store.(*agg.Int64Sums)
				if !ok {
					t.Fatalf("count store is a %T, want *agg.Int64Sums", store)
				}
				wire, err := sums.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if scalar := binary.AppendVarint([]byte{2, 1}, n); !bytes.Equal(wire, scalar) {
					t.Errorf("count wire form % x, want the one-slot scalar form % x", wire, scalar)
				}
				// One such payload per worker is all the step ships.
				shipped := res.Steps[0].AggShippedBytes
				if shipped < int64(3*workers) || shipped > int64((2+binary.MaxVarintLen64)*workers) {
					t.Errorf("step shipped %d aggregation bytes from %d worker(s): not one scalar payload each", shipped, workers)
				}
			})
		}
	}
}

// unsupportedShapeApp is a registered app whose workflow aggregates under a
// key type with no wire form; its kernel counts how often it ran.
type unsupportedShapeApp struct{ emitted *atomic.Int64 }

func (a unsupportedShapeApp) Build(_ JobSpec, g *RawGraph) (Job, error) {
	return unsupportedShapeFractoid(NewBuildGraph(g), a.emitted).Job()
}

func unsupportedShapeFractoid(g *Graph, emitted *atomic.Int64) *Fractoid {
	return Aggregate(g.VFractoid().Expand(2), "by-size",
		func(e *Subgraph) uint8 { emitted.Add(1); return uint8(e.NumVertices()) },
		func(*Subgraph) int64 { return 1 },
		agg.SumInt64, nil)
}

// TestUnsupportedShapeFailsBeforeEnumeration: an aggregation whose K/V has no
// wire form is refused with the typed error, naming K and V, before step 0
// tests a single extension — through the closure path at 1×1 and 2×2,
// through RunSpec in-process, and on a master (which has no worker yet: the
// refusal must come before the spec is distributed, not after a wait).
func TestUnsupportedShapeFailsBeforeEnumeration(t *testing.T) {
	var emitted atomic.Int64
	RegisterApp("test-unsupported-shape", unsupportedShapeApp{emitted: &emitted})
	path := filepath.Join(t.TempDir(), "k4.el")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, k4Graph()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	closure := func(ctx context.Context, g *Graph) (*Result, error) {
		return unsupportedShapeFractoid(g, &emitted).RunCtx(ctx)
	}
	spec := func(ctx context.Context, g *Graph) (*Result, error) {
		return g.RunSpec(ctx, "test-unsupported-shape", nil, nil)
	}
	for _, tc := range []struct {
		name string
		opts []Option
		run  func(context.Context, *Graph) (*Result, error)
	}{
		{"closure 1x1", []Option{WithWorkers(1), WithCores(1)}, closure},
		{"closure 2x2", []Option{WithWorkers(2), WithCores(2)}, closure},
		{"spec 2x2", []Option{WithWorkers(2), WithCores(2)}, spec},
		{"master", []Option{WithListenAddr("127.0.0.1:0")}, spec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc, err := NewContext(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			g, err := fc.LoadGraph(path)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			res, err := tc.run(ctx, g)
			var shape *UnsupportedShapeError
			if !errors.As(err, &shape) {
				t.Fatalf("err = %v, want *UnsupportedShapeError", err)
			}
			if shape.Key != "uint8" || shape.Value != "int64" {
				t.Errorf("error names %s -> %s, want uint8 -> int64", shape.Key, shape.Value)
			}
			if res != nil && (len(res.Steps) != 0 || res.TotalEC() != 0) {
				t.Errorf("steps attempted before the refusal: %+v", res.Steps)
			}
			if n := emitted.Load(); n != 0 {
				t.Errorf("the kernel ran %d times before the refusal", n)
			}
		})
	}
}
