package apps

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/workload"
)

// Differential suites for the decomposition engine (DESIGN.md §14): the
// mixed fleet's motif counts must be bit-identical to both the pure plan
// fleet and the canonical-check oracle over randomized ER/BA/multigraph
// seeds, and single-pattern decomposition counts must match plan
// enumeration (FuzzEngines crosses the same oracles with every deployment
// and storage form). Beyond counts: the auto selection falls back cleanly on
// labeled graphs and refuses what it cannot convert, label semantics, the
// sweep's cost and report, and exact counts past the degrees enumeration
// reaches.

// decompMultigraph samples edges with replacement so parallel edges occur;
// with labels=1 every label is 0, keeping the graph uniform for the sweep.
func decompMultigraph(name string, n, m, labels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		b.MustAddEdge(u, v, graph.Label(rng.Intn(labels)))
	}
	return b.Build()
}

func decompDiffGraphs() []*graph.Graph {
	return []*graph.Graph{
		workload.ErdosRenyi("ddiff-er", 70, 260, 1, 51),
		workload.ErdosRenyi("ddiff-er-sparse", 90, 120, 1, 52),
		workload.BarabasiAlbert("ddiff-ba", 90, 3, 1, 53),
		workload.BarabasiAlbert("ddiff-ba-dense", 60, 6, 1, 54),
		decompMultigraph("ddiff-mg", 50, 220, 1, 55),
	}
}

func TestMotifsDecompMatchesPlanAndCanon(t *testing.T) {
	ctx := testCtx(t)
	for _, raw := range decompDiffGraphs() {
		g := ctx.FromGraph(raw)
		for k := 1; k <= pattern.MaxDecompVertices; k++ {
			if k >= 5 && testing.Short() {
				continue
			}
			if k >= 2 {
				sweepsEveryDecomposable(t, g, k)
			}
			auto, _, err := Motifs(bg, ctx, g, k, EngineAuto)
			if err != nil {
				t.Fatalf("%s k=%d auto: %v", raw.Name(), k, err)
			}
			plan, _, err := Motifs(bg, ctx, g, k, EnginePlan)
			if err != nil {
				t.Fatalf("%s k=%d plan: %v", raw.Name(), k, err)
			}
			motifCountsEqual(t, raw.Name()+"/auto-vs-plan", k, auto, plan)
			if k <= 4 {
				canon, _, err := motifsOracle(ctx, g, k)
				if err != nil {
					t.Fatalf("%s k=%d canon: %v", raw.Name(), k, err)
				}
				motifCountsEqual(t, raw.Name()+"/auto-vs-canon", k, auto, canon)
			}
		}
	}
}

func TestMotifsAutoMatchesCanon(t *testing.T) {
	ctx := testCtx(t)
	for _, raw := range decompDiffGraphs() {
		g := ctx.FromGraph(raw)
		for k := 3; k <= 4; k++ {
			auto, _, err := Motifs(bg, ctx, g, k, EngineAuto)
			if err != nil {
				t.Fatalf("%s k=%d auto: %v", raw.Name(), k, err)
			}
			canon, _, err := motifsOracle(ctx, g, k)
			if err != nil {
				t.Fatalf("%s k=%d canon: %v", raw.Name(), k, err)
			}
			motifCountsEqual(t, raw.Name()+"/auto-vs-canon", k, auto, canon)
		}
	}
}

// TestMotifsAutoLabeledFallback: on a labeled graph the auto fleet must
// decline decomposition, say why, and still match the oracle.
func TestMotifsAutoLabeledFallback(t *testing.T) {
	ctx := testCtx(t)
	raw := workload.ErdosRenyi("ddiff-ml", 60, 220, 3, 56)
	g := ctx.FromGraph(raw)
	auto, _, err := Motifs(bg, ctx, g, 3, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	canon, _, err := motifsOracle(ctx, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	motifCountsEqual(t, "ddiff-ml/auto-vs-canon", 3, auto, canon)

	d, err := DecideMotifs(g, 3, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if d.Sweep != nil || !strings.Contains(d.Reason, "labels") {
		t.Errorf("labeled graph: sweep %v, reason %q, want no sweep for the labels", d.Sweep != nil, d.Reason)
	}
}

// TestMotifsDecompRefusesOversizeK: the induced conversion is bounded by
// MaxDecompVertices (6), past which the auto engine enumerates every pattern,
// and the pattern sets by MaxGenVertices, past which every engine refuses k.
func TestMotifsDecompRefusesOversizeK(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(workload.ErdosRenyi("ddiff-k7", 30, 60, 1, 57))
	d, err := DecideMotifs(g, pattern.MaxDecompVertices+1, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if d.Sweep != nil || !strings.Contains(d.Reason, "induced-conversion bound") {
		t.Errorf("k beyond the conversion bound: sweep %v, reason %q", d.Sweep != nil, d.Reason)
	}
	for _, engine := range []string{EngineAuto, EnginePlan} {
		_, _, err := Motifs(bg, ctx, g, pattern.MaxGenVertices+1, engine)
		if err == nil || !strings.Contains(err.Error(), `argument "k" must be in [1, 8]`) {
			t.Errorf("%s: k beyond the pattern sets: err=%v, want the range error", engine, err)
		}
	}
}

// TestMotifsFleetReasonMixed pins the auto decision on uniform graphs at
// k=3..6: the shared sweep replaces enough enumeration to win.
func TestMotifsFleetReasonMixed(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(workload.BarabasiAlbert("ddiff-reason", 50, 3, 1, 58))
	for k := 3; k <= 6; k++ {
		for _, fg := range []*fractal.Graph{g, nil} { // nil: the -explain path
			d, err := DecideMotifs(fg, k, EngineAuto)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(d.Reason, "mixed fleet:") {
				t.Errorf("k=%d graph %v: reason %q, want mixed fleet", k, fg != nil, d.Reason)
			}
		}
	}
}

// TestDecompCountMatchesQueryPlans pins the single-pattern public API:
// DecompCountCtx equals the plan engine's non-induced match count for every
// decomposable query shape, on simple graphs and multigraphs.
func TestDecompCountMatchesQueryPlans(t *testing.T) {
	ctx := testCtx(t)
	pats := map[string]*fractal.Pattern{
		"triangle": pattern.Triangle(),
		"path3":    pattern.Path(3),
		"path4":    pattern.Path(4),
		"star4":    pattern.Star(4),
		"star5":    pattern.Star(5),
		"diamond":  pattern.ChordalSquare(),
		"bowtie":   pattern.Bowtie(),
		"square":   pattern.Cycle(4),
		"path5":    pattern.Path(5),
	}
	for _, raw := range []*graph.Graph{
		workload.ErdosRenyi("ddiff-q", 60, 200, 1, 59),
		decompMultigraph("ddiff-q-mg", 40, 150, 1, 60),
	} {
		g := ctx.FromGraph(raw)
		for name, p := range pats {
			dp, err := fractal.CompileDecomp(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, res, err := g.DecompCountCtx(bg, dp)
			if err != nil {
				t.Fatalf("%s/%s: %v", raw.Name(), name, err)
			}
			if res.TotalEC() <= 0 {
				t.Errorf("%s/%s: sweep reported EC=%d", raw.Name(), name, res.TotalEC())
			}
			want, _, err := Query(bg, ctx, g, p, EnginePlan)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s: decomp=%d plan=%d", raw.Name(), name, got, want)
			}
		}
	}
}

// TestDecompCountLabelSemantics: incompatible uniform labels yield zero;
// mixed-label graphs are refused.
func TestDecompCountLabelSemantics(t *testing.T) {
	ctx := testCtx(t)

	// Uniformly labeled graph (every vertex label 3, every edge label 1).
	b := graph.NewBuilder("ddiff-lab")
	for i := 0; i < 5; i++ {
		b.AddVertex(3)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 5; j++ {
			b.MustAddEdge(graph.VertexID(i), graph.VertexID(j), 1)
		}
	}
	g := ctx.FromGraph(b.Build())

	// A wildcard triangle matches; a triangle demanding label 9 matches zero.
	dp, err := fractal.CompileDecomp(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := g.DecompCountCtx(bg, dp)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("wildcard triangle count 0 on a labeled clique")
	}
	lb := pattern.NewBuilder(3)
	for v := 0; v < 3; v++ {
		lb.SetVertexLabel(v, 9)
	}
	lb.AddEdge(0, 1, 1)
	lb.AddEdge(1, 2, 1)
	lb.AddEdge(0, 2, 1)
	dp9, err := fractal.CompileDecomp(lb.Build())
	if err != nil {
		t.Fatal(err)
	}
	n, _, err = g.DecompCountCtx(bg, dp9)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("label-9 triangle count %d on a label-3 graph, want 0", n)
	}

	// Mixed-label graphs are outside the engine.
	ml := ctx.FromGraph(workload.ErdosRenyi("ddiff-lab-ml", 30, 90, 3, 61))
	if _, _, err := ml.DecompCountCtx(bg, dp); err == nil {
		t.Error("mixed-label graph: expected error")
	}
}

// TestMotifsDecompSweepCheaper is the engine's reason to exist: on the
// acceptance-shaped BA graph at k=4 the mixed fleet must report far less
// extension cost than the pure plan fleet while agreeing bit-for-bit.
func TestMotifsDecompSweepCheaper(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(workload.BarabasiAlbert("ddiff-ec", 200, 4, 1, 62))
	sweepsEveryDecomposable(t, g, 4)
	md, dres, err := Motifs(bg, ctx, g, 4, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	mp, pres, err := Motifs(bg, ctx, g, 4, EnginePlan)
	if err != nil {
		t.Fatal(err)
	}
	motifCountsEqual(t, "ddiff-ec", 4, md, mp)
	decompEC, planEC := dres.TotalEC(), pres.TotalEC()
	if decompEC == 0 || planEC == 0 {
		t.Fatalf("degenerate EC: decomp=%d plan=%d", decompEC, planEC)
	}
	if planEC < 2*decompEC {
		t.Errorf("mixed fleet EC=%d, plan fleet EC=%d: want >= 2x reduction", decompEC, planEC)
	}
	t.Logf("motifs k=4 EC: mixed=%d plan=%d (%.1fx)", decompEC, planEC, float64(planEC)/float64(decompEC))
}

// TestMotifsSweepInReport: the decomposition sweep is a step of the run, so
// a mixed fleet's report holds it and the fleet's TotalEC is the report's
// (the sweep's work used to be added to TotalEC beside a report that did
// not have it). The sweep's EC is its kernel's adjacency reads, not one
// test per root vertex.
func TestMotifsSweepInReport(t *testing.T) {
	ctx := testCtx(t)
	raw := workload.BarabasiAlbert("ddiff-report", 120, 3, 1, 63)
	for k := 3; k <= 5; k++ {
		_, res, err := Motifs(bg, ctx, ctx.FromGraph(raw), k, EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		var reported int64
		for _, s := range res.Report.Steps {
			reported += s.EC
		}
		if res.TotalEC() != reported {
			t.Errorf("k=%d: TotalEC=%d, report's steps add up to %d", k, res.TotalEC(), reported)
		}
		sweep := res.Report.Steps[0]
		if sweep.Workflow != "EA" || sweep.Subgraphs != int64(raw.NumVertices()) || sweep.EC <= 2*int64(raw.NumEdges()) {
			t.Errorf("k=%d: first step %s, %d subgraphs, EC=%d: want the sweep, one subgraph per vertex (%d), EC above the %d incidences",
				k, sweep.Workflow, sweep.Subgraphs, sweep.EC, raw.NumVertices(), 2*raw.NumEdges())
		}
	}
}

// TestDecompCountHighDegreeHubs holds the sweep to exact counts where
// placements ordered leaf by leaf would leave int64: two hubs of degree 1 400
// sharing their leaves give C(1 400, 6) ≈ 1.0e16 seven-vertex stars per hub
// and as many K2,6 (1 400·1 399·…·1 395 ≈ 7.5e18 ordered placements per hub
// or hub pair), a ten-vertex star counts too, and a count past int64 is an
// error, not a wrapped number.
func TestDecompCountHighDegreeHubs(t *testing.T) {
	const leaves = 1400
	ctx := testCtx(t)
	b := graph.NewBuilder("ddiff-hubs")
	b.EnsureVertices(leaves + 2)
	for w := 2; w < leaves+2; w++ {
		b.MustAddEdge(0, graph.VertexID(w))
		b.MustAddEdge(1, graph.VertexID(w))
	}
	g := ctx.FromGraph(b.Build())
	binom := func(n, k int64) int64 { return new(big.Int).Binomial(n, k).Int64() }
	k2 := func(s int) *fractal.Pattern { // K2,s
		b := pattern.NewBuilder(s + 2)
		for w := 2; w < s+2; w++ {
			b.AddEdge(0, w, pattern.NoLabel)
			b.AddEdge(1, w, pattern.NoLabel)
		}
		return b.Build()
	}
	for _, c := range []struct {
		name string
		p    *fractal.Pattern
		want int64 // 0: the count leaves int64
	}{
		// Each leaf has degree 2: it centers C(2, 1) paths of length 2.
		{"star7", pattern.Star(7), 2 * binom(leaves, 6)},
		{"K2,6", k2(6), binom(leaves, 6)},
		{"star10", pattern.Star(10), 0},
		{"K2,9", k2(9), 0},
		{"star3", pattern.Star(3), 2*binom(leaves, 2) + leaves},
	} {
		querySwept(t, g, c.p, c.name)
		got, _, err := Query(bg, ctx, g, c.p, EngineAuto)
		switch {
		case c.want == 0 && (err == nil || !strings.Contains(err.Error(), "overflows int64")):
			t.Errorf("%s: got %d (%v), want an int64 overflow error", c.name, got, err)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("%s: got %d (%v), want %d", c.name, got, err, c.want)
		}
	}
	// A ten-vertex star below the bound: C(1 400, 9) per hub leaves int64,
	// so the same star on the hubs' first dozen leaves.
	small := graph.NewBuilder("ddiff-hub12")
	small.EnsureVertices(13)
	for w := 1; w < 13; w++ {
		small.MustAddEdge(0, graph.VertexID(w))
	}
	hub := ctx.FromGraph(small.Build())
	querySwept(t, hub, pattern.Star(10), "star10")
	if got, _, err := Query(bg, ctx, hub, pattern.Star(10), EngineAuto); err != nil || got != binom(12, 9) {
		t.Errorf("star10 on a 12-leaf hub: got %d (%v), want %d", got, err, binom(12, 9))
	}
}
