package apps

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/workload"
)

// FuzzEngines holds the engines to one count oracle: every combination of
// graph, labels, renumbering, app, engine, deployment and storage it decodes
// must count what the canonical-check oracles (motifsOracle, cliquesOracle)
// count on the graph as built. The engines are Listing 1's canonical path
// ("canon"), the compiled symmetry-broken plans ("plan"), a query's
// decomposition counted on its own ("decomp") and the cost model's pick
// ("auto", which sweeps decomposable motif classes); the deployments one
// or two in-process workers of one or two cores, and a master with two
// ServeWorkers over TCP; the storage the built graph, a text edge list or a
// memory-mapped .fgr. The checked-in corpus (testdata/fuzz/FuzzEngines)
// hits every value of every axis; `make fuzz-engines` searches further.
func FuzzEngines(f *testing.F) {
	dir := f.TempDir()
	oracleCtx, err := fractal.NewContext(fractal.WithCores(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(oracleCtx.Close)
	// One master per process, reused across inputs: its workers cache the
	// graph files, whose names repeat (four numberings of each graph).
	master := distPair(f)
	oracles := map[string]any{}

	f.Fuzz(func(t *testing.T, graphSel, labels, renumber, app, k, pat, engine, deploy, storage uint8) {
		c := decodeEngineCase(graphSel, labels, renumber, app, k, pat, deploy, storage)
		raw := c.fixture.build(c.labels)
		key := fmt.Sprintf("%s/%d/%v/%d", c.fixture.name, c.labels, c.cliqueOracle(), c.k)
		want, ok := oracles[key]
		if !ok {
			want = c.oracle(t, oracleCtx, oracleCtx.FromGraph(raw))
			oracles[key] = want
		}
		fc := master
		if c.deploy < len(engineDeployments) {
			d := engineDeployments[c.deploy]
			if fc, err = fractal.NewContext(fractal.WithWorkers(d[0]), fractal.WithCores(d[1])); err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
		}
		g := c.load(t, fc, dir, raw)
		legal := c.legalEngines(g, fc == master)
		c.engine = legal[int(engine)%len(legal)]
		got := c.run(t, fc, g)
		t.Log(c)
		if w, ok := want.(MotifCounts); ok && c.app == AppMotifs {
			motifCountsEqual(t, c.String(), c.k, byName(got.(MotifCounts), g.Raw().Dict()), w)
			return
		}
		if w, ok := want.(MotifCounts); ok {
			want = queryFromMotifs(c.counted(), w)
		}
		if got != want {
			t.Errorf("%s: counted %v, oracle %v", c, got, want)
		}
	})
}

// engineFixture is a graph axis value. maxK bounds k per app so that every
// input, the oracle included, stays under half a second: motifs reach k = 6,
// the decomposition's induced-conversion bound, on the sparse graph only,
// and queries stop at 5 (queryFromMotifs tries 2^15 edge subsets of a
// 6-clique class).
type engineFixture struct {
	name  string
	build func(labels int) *graph.Graph
	maxK  [3]int // by engineApps
}

var (
	engineFixtures = []engineFixture{
		{"er", func(l int) *graph.Graph { return workload.ErdosRenyi("fz-er", 70, 260, l, 21) }, [3]int{4, 5, 4}},
		{"ba", func(l int) *graph.Graph { return workload.BarabasiAlbert("fz-ba", 90, 3, l, 23) }, [3]int{4, 5, 4}},
		{"er-sparse", func(l int) *graph.Graph { return workload.ErdosRenyi("fz-er-sparse", 90, 120, l, 52) }, [3]int{6, 5, 5}},
		{"ba-dense", func(l int) *graph.Graph { return workload.BarabasiAlbert("fz-ba-dense", 60, 6, l, 54) }, [3]int{4, 5, 4}},
		{"multigraph", func(l int) *graph.Graph { return decompMultigraph("fz-mg", 50, 220, l, 55) }, [3]int{4, 4, 4}},
		{"mico-sl", pinnedFixture("mico-sl"), [3]int{3, 4, 3}},
		{"orkut", pinnedFixture("orkut"), [3]int{2, 3, 2}},
	}
	// engineDeployments are the in-process workers × cores; the master is
	// the index past them.
	engineDeployments = [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	engineApps        = []string{AppMotifs, "cliques", AppQuery}
	engineStorages    = []string{"built", "el", "fgr"}
)

// pinnedFixture is a pinned dataset analog, with skewed labels when asked
// for several.
func pinnedFixture(name string) func(int) *graph.Graph {
	return func(labels int) *graph.Graph {
		g, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		if labels > 1 {
			g = workload.SkewLabels(g, labels, 1)
		}
		return g
	}
}

// engineCase is one decoded input.
type engineCase struct {
	fixture          engineFixture
	labels, renumber int // renumber 0 keeps the numbering, else seeds a permutation
	app              string
	k                int
	pattern          *fractal.Pattern // query only
	engine           string
	deploy           int // index into engineDeployments, or the master
	storage          string
}

func decodeEngineCase(graphSel, labels, renumber, app, k, pat, deploy, storage uint8) engineCase {
	c := engineCase{
		fixture:  engineFixtures[int(graphSel)%len(engineFixtures)],
		labels:   1 + 2*int(labels%2),
		renumber: int(renumber % 4),
		app:      engineApps[app%3],
		deploy:   int(deploy) % (len(engineDeployments) + 1),
		storage:  engineStorages[int(storage)%len(engineStorages)],
	}
	lo := 2
	if c.app == AppMotifs {
		lo = 1
	}
	c.k = lo + int(k)%(c.fixture.maxK[app%3]-lo+1)
	if c.app == AppQuery {
		pats, _ := pattern.ConnectedPatterns(c.k)
		c.pattern = pats[int(pat)%len(pats)]
	}
	if c.deploy == len(engineDeployments) && c.storage == "built" {
		c.storage = "el" // a master ships graphs by path
	}
	return c
}

func (c engineCase) String() string {
	where := "master + 2 ServeWorkers"
	if c.deploy < len(engineDeployments) {
		where = fmt.Sprintf("%dx%d", engineDeployments[c.deploy][0], engineDeployments[c.deploy][1])
	}
	what := fmt.Sprintf("%s k=%d", c.app, c.k)
	if c.pattern != nil {
		what = fmt.Sprint("query ", c.pattern)
	}
	return fmt.Sprintf("%s (%d labels, numbering %d, %s) %s, %s engine, %s",
		c.fixture.name, c.labels, c.renumber, c.storage, what, c.engine, where)
}

// cliqueOracle tells whether Listing 2 holds the case; queries convert motif
// counts (queryFromMotifs).
func (c engineCase) cliqueOracle() bool { return c.app == "cliques" }

func (c engineCase) oracle(t *testing.T, fc *fractal.Context, g *fractal.Graph) (want any) {
	var err error
	if c.cliqueOracle() {
		want, _, err = cliquesOracle(g, c.k)
	} else {
		want, _, err = motifsOracle(fc, g, c.k)
	}
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// load renumbers raw and hands it to fc in the case's storage form. Files
// are named by content, so a master's workers load each once.
func (c engineCase) load(t *testing.T, fc *fractal.Context, dir string, raw *graph.Graph) *fractal.Graph {
	g := raw
	if c.renumber != 0 {
		g = renumbered(raw, rand.New(rand.NewSource(int64(c.renumber))).Perm(raw.NumVertices()))
	}
	if c.storage == "built" {
		return fc.FromGraph(g)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-l%d-r%d.%s", c.fixture.name, c.labels, c.renumber, c.storage))
	if _, err := os.Stat(path); err != nil {
		saveGraph(t, path, g)
	}
	return loadOn(t, fc, path)
}

// renumbered copies g with vertex v renamed perm[v].
func renumbered(g *graph.Graph, perm []int) *graph.Graph {
	old := make([]graph.VertexID, len(perm))
	for v, p := range perm {
		old[p] = graph.VertexID(v)
	}
	b := graph.NewBuilder(g.Name())
	for _, v := range old {
		b.AddVertex(g.VertexLabels(v)...)
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.EdgeByID(graph.EdgeID(e))
		b.MustAddEdge(graph.VertexID(perm[ed.Src]), graph.VertexID(perm[ed.Dst]), ed.Labels...)
	}
	return b.Build()
}

// counted is the pattern a cliques or query case counts.
func (c engineCase) counted() *fractal.Pattern {
	if c.app == "cliques" {
		return pattern.Clique(c.k)
	}
	return c.pattern
}

// legalEngines lists the engines that can count the case on g: canon runs
// closures, which no master ships; decomp needs a decomposition of the
// pattern and one graph label. Motifs has no decomp of its own: its auto
// fleet sweeps the decomposable classes where it can.
func (c engineCase) legalEngines(g *fractal.Graph, onMaster bool) []string {
	engines := []string{EngineAuto, EnginePlan}
	if !onMaster {
		engines = append(engines, "canon")
	}
	if c.app == AppMotifs {
		return engines
	}
	if _, err := pattern.Decompose(c.counted()); err == nil && !mixesLabels(g) {
		engines = append(engines, "decomp")
	}
	return engines
}

// run counts the case on g: MotifCounts for motifs, an int64 otherwise.
func (c engineCase) run(t *testing.T, fc *fractal.Context, g *fractal.Graph) (got any) {
	var err error
	switch {
	case c.engine == "canon" && c.app == "cliques":
		got, _, err = cliquesOracle(g, c.k)
	case c.engine == "canon":
		var m MotifCounts
		if m, _, err = motifsOracle(fc, g, c.k); c.app == AppMotifs {
			got = m
		} else {
			got = queryFromMotifs(c.pattern, m)
		}
	case c.app == AppMotifs:
		got, _, err = Motifs(bg, fc, g, c.k, c.engine)
	case c.engine == "decomp":
		var dp *fractal.DecompPlan
		if dp, err = fractal.CompileDecomp(c.counted()); err == nil {
			got, _, err = g.DecompCountCtx(bg, dp)
		}
	case c.app == "cliques" && c.engine == EngineAuto:
		got, _, err = Cliques(bg, fc, g, c.k)
	default:
		got, _, err = Query(bg, fc, g, c.counted(), c.engine)
	}
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	return got
}

// byName keys m by the labels of the built graph: a text graph's labels
// are names, numbered in the order the file first names them, and the
// edge-list writer names each label by its number in the built graph.
func byName(m MotifCounts, d *graph.Dictionary) MotifCounts {
	orig := func(l graph.Label) graph.Label {
		if n, err := strconv.Atoi(d.Name(l)); err == nil && l != pattern.NoLabel {
			return graph.Label(n)
		}
		return l
	}
	out := MotifCounts{}
	for _, pc := range m {
		q, n := pc.Pat, pc.Pat.NumVertices()
		b := pattern.NewBuilder(n)
		for u := 0; u < n; u++ {
			b.SetVertexLabel(u, orig(q.VertexLabel(u)))
			for v := u + 1; v < n; v++ {
				if q.HasEdge(u, v) {
					b.AddEdge(u, v, orig(q.EdgeLabel(u, v)))
				}
			}
		}
		canon := b.Build().Canonical()
		out[canon.Code] = agg.PatternCount{Pat: b.Build().Relabel(canon.Perm), Count: pc.Count}
	}
	return out
}

// queryFromMotifs converts motif counts to p's non-induced count: every
// match of p spans the vertex set of exactly one induced subgraph, so it is
// the sum over the motif classes of their count times the number of edge
// subsets of the class that form p — found by trying them all, labels
// aside (generated patterns carry none).
func queryFromMotifs(p *fractal.Pattern, m MotifCounts) int64 {
	want := unlabeled(p, -1).Canonical().Code
	var n int64
	for _, pc := range m {
		q := pc.Pat
		if q.NumVertices() != p.NumVertices() {
			continue
		}
		for set := 0; set < 1<<q.NumEdges(); set++ {
			if sub := unlabeled(q, set); sub.NumEdges() == p.NumEdges() && sub.Canonical().Code == want {
				n += pc.Count
			}
		}
	}
	return n
}

// unlabeled copies the edges of q whose bit is set in set, in row order,
// without labels.
func unlabeled(q *fractal.Pattern, set int) *fractal.Pattern {
	b := pattern.NewBuilder(q.NumVertices())
	i := 0
	for u := 0; u < q.NumVertices(); u++ {
		for v := u + 1; v < q.NumVertices(); v++ {
			if q.HasEdge(u, v) {
				if set&(1<<i) != 0 {
					b.AddEdge(u, v, pattern.NoLabel)
				}
				i++
			}
		}
	}
	return b.Build()
}
