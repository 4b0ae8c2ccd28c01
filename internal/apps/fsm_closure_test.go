package apps

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/workload"
)

// closureGraph is the i-th graph of the closure suite: small ER, BA and
// community graphs over 1, 2, 3, 5 or 8 vertex labels; every fourth one is a
// multigraph — a tenth of its edges doubled, edge labels drawn from three.
func closureGraph(i int) *graph.Graph {
	labels := []int{1, 2, 3, 5, 8}[i%5]
	seed := int64(7000 + i)
	name := fmt.Sprintf("closure-%d", i)
	// More labels, more vertices: every support must leave something frequent.
	n := 30 + i%9 + 10*labels
	var g *graph.Graph
	switch i % 3 {
	case 0:
		g = workload.ErdosRenyi(name, n, 2*n, labels, seed)
	case 1:
		g = workload.BarabasiAlbert(name, n, 2, labels, seed)
	default:
		g = workload.Community(name, 4, n/4, 2.6, 0.5, labels, seed)
	}
	if i%4 != 3 {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name + "-multi")
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.VertexLabels(graph.VertexID(v))...)
	}
	for id := 0; id < g.NumEdges(); id++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(id))
		b.MustAddEdge(u, v, graph.Label(rng.Intn(3)))
		if rng.Intn(10) == 0 {
			b.MustAddEdge(u, v, graph.Label(rng.Intn(3)))
		}
	}
	return b.Build()
}

// TestFSMEqualsLevelwiseClosure holds FSM to what it computes by
// construction: the level-wise closure of Listing 3 — fsmOracle with each
// level closed before the next reads it. Keys, supports and every domain
// must agree on seeded random graphs (one label to eight, simple and
// multigraph), three supports each, three or four edge levels, on one core,
// on two, and on two one-core workers, whose partials and domains the
// master merges. Where the closure drops nothing the oracle is Listing 3
// itself; the suite says how often that is.
func TestFSMEqualsLevelwiseClosure(t *testing.T) {
	graphs := 42
	if testing.Short() || raceEnabled { // `make check-race` runs the short form
		graphs = 8
	}
	deployments := []struct {
		name string
		fc   *fractal.Context
	}{
		{"1x1", inProcess(fractal.WithCores(1))(t)},
		{"1x2", inProcess(fractal.WithCores(2))(t)},
		{"2x1", inProcess(fractal.WithWorkers(2), fractal.WithCores(1))(t)},
	}
	oracleCtx := deployments[1].fc
	runs, identity, multi := 0, 0, 0
	for i := 0; i < graphs; i++ {
		raw := closureGraph(i)
		for j, support := range []int64{2, 3, 5} {
			maxEdges := 3 + (i+j)%2
			og := oracleCtx.FromGraph(raw)
			want := fsmOracleLevels(t, og, support, maxEdges, true)
			if len(want[0]) == 0 {
				t.Fatalf("%s support %d: nothing frequent at level 1, a degenerate fixture", raw.Name(), support)
			}
			runs++
			// A closed level is a subset of the open one: equal sizes, equal sets.
			if slices.EqualFunc(want, fsmOracle(t, og, support, maxEdges), func(a, b fsmOracleLevel) bool {
				return len(a) == len(b)
			}) {
				identity++
			}
			for _, d := range deployments {
				label := fmt.Sprintf("%s support %d maxedges %d on %s", raw.Name(), support, maxEdges, d.name)
				got, err := FSM(bg, d.fc, d.fc.FromGraph(raw), support, FSMOptions{MaxEdges: maxEdges})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fsmEqualsOracle(t, label, got, want)
			}
		}
		if raw.NumEdges() > 0 && i%4 == 3 {
			multi++
		}
	}
	t.Logf("%d graphs (%d multigraphs), %d oracle runs: the closure is Listing 3's own result on %d", graphs, multi, runs, identity)
}

// TestFSMReductionKeepsFrequentSet: every level past the first mines the
// frequent-edge graph, which drops only edges that no frequent class can
// hold, so FSM's keys, supports and domains are the level-wise closure's
// (fsmOracleLevels) on the input graph — on simple graphs, on a multigraph,
// and on fsmOrientationGraph, whose one frequent folded class both refuse.
func TestFSMReductionKeepsFrequentSet(t *testing.T) {
	ctx := testCtx(t)
	// BA, community, ER, multigraph BA, and the orientation case.
	for _, raw := range []*graph.Graph{closureGraph(1), closureGraph(2), closureGraph(6), closureGraph(7), fsmOrientationGraph()} {
		g := ctx.FromGraph(raw)
		for _, support := range []int64{2, 4} {
			got, err := FSM(bg, ctx, g, support, FSMOptions{MaxEdges: 3})
			if err != nil {
				t.Fatal(err)
			}
			fsmEqualsOracle(t, fmt.Sprintf("%s support %d", raw.Name(), support), got, fsmOracleLevels(t, g, support, 3, true))
		}
	}
}

// fsmOrientationGraph has two parallel label-1 pairs, (0, 7) and (2, 8),
// and label-2 edges (0, 1) and (0, 2), every vertex labelled 0. Level 1
// files an edge between equal labels in one orientation, so the label-2
// edge's support is 1 (vertex 0 on one side), though its MNI support is 3
// and the frequent-edge graph keeps it at support 2. At level 3 the class
// "pair, then a label-2 edge" would be frequent — its shared vertex is 0 or
// 2, its far end 0, 1 or 2 — but it folds the pair into two pattern edges,
// and FSM mines simple patterns: the level refuses it.
func fsmOrientationGraph() *graph.Graph {
	b := graph.NewBuilder("fsm-orientation")
	for v := 0; v < 9; v++ {
		b.AddVertex(0)
	}
	for _, e := range [][3]int{{0, 7, 1}, {0, 7, 1}, {2, 8, 1}, {2, 8, 1}, {0, 1, 2}, {0, 2, 2}} {
		b.MustAddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), graph.Label(e[2]))
	}
	return b.Build()
}

// fsmParallelGraph is a labelled multigraph with every kind of edge the
// frequent-edge graph decides at support 3: frequent ones (label 1 between
// label-0 vertices), among them three parallel pairs; an infrequent label
// (2) parallel to a frequent one, which goes like any infrequent edge — a
// class that folds it into its frequent twin is refused anyway; and two
// infrequent simple edges — an infrequent label, and a frequent label
// between an infrequent pair of vertex labels. fsmParallelKept lists, in
// order, the edges the frequent-edge graph keeps.
func fsmParallelGraph() *graph.Graph {
	b := graph.NewBuilder("fsm-parallel")
	for v := 0; v < 8; v++ {
		b.AddVertex(graph.Label(v / 7)) // v7 alone has label 1
	}
	for _, e := range fsmParallelEdges {
		b.MustAddEdge(e.Src, e.Dst, e.Labels...)
	}
	return b.Build()
}

var fsmParallelEdges = []graph.Edge{
	{Src: 0, Dst: 1, Labels: []graph.Label{1}}, // frequent parallel pairs
	{Src: 0, Dst: 1, Labels: []graph.Label{1}},
	{Src: 1, Dst: 2, Labels: []graph.Label{1}},
	{Src: 2, Dst: 3, Labels: []graph.Label{1}},
	{Src: 2, Dst: 3, Labels: []graph.Label{1}},
	{Src: 3, Dst: 4, Labels: []graph.Label{1}},
	{Src: 4, Dst: 5, Labels: []graph.Label{1}},
	{Src: 4, Dst: 5, Labels: []graph.Label{2}}, // infrequent, parallel: goes
	{Src: 5, Dst: 6, Labels: []graph.Label{3}}, // infrequent label: goes
	{Src: 6, Dst: 7, Labels: []graph.Label{1}}, // infrequent vertex labels: goes
}

var fsmParallelKept = []int{0, 1, 2, 3, 4, 5, 6}

// TestFSMFrequentEdgeGraph pins the rule levels past the first mine by: the
// level-2 job carries the loaded graph itself — a master ships it as a spec
// and enumerates nothing — and its Reduce derives a graph with every vertex
// of the input and exactly the kept edges, in their order, the infrequent
// parallel edge not among them; keys, supports and domains must be Listing 3's
// over simple patterns (fsmOracle), the classes that fold a pair refused.
func TestFSMFrequentEdgeGraph(t *testing.T) {
	ctx := testCtx(t)
	raw := fsmParallelGraph()
	g := ctx.FromGraph(raw)
	job, err := fsmBuilder{}.Build(fractal.JobSpec{App: AppFSM, Args: map[string]string{"support": "3", "level": "2"}}, raw)
	if err != nil {
		t.Fatal(err)
	}
	if job.Graph != raw || job.Reduce == nil {
		t.Fatalf("level-2 job has graph %p and Reduce %t, want the loaded graph %p and a reduction", job.Graph, job.Reduce != nil, raw)
	}
	red := job.Reduce(job.Graph)
	if red.NumVertices() != raw.NumVertices() || red.NumEdges() != len(fsmParallelKept) {
		t.Errorf("level-2 graph has %d vertices and %d edges, want %d and %d",
			red.NumVertices(), red.NumEdges(), raw.NumVertices(), len(fsmParallelKept))
	} else {
		for id, i := range fsmParallelKept {
			got, want := red.EdgeByID(graph.EdgeID(id)), fsmParallelEdges[i]
			if got.Src != want.Src || got.Dst != want.Dst || !slices.Equal(got.Labels, want.Labels) {
				t.Errorf("level-2 edge %d is %v, want input edge %d %v", id, got, i, want)
			}
		}
	}

	want := fsmOracle(t, g, 3, 3)
	if len(want) < 2 || len(want[1]) == 0 {
		t.Fatalf("oracle finds nothing frequent at level 2: %v", want)
	}
	for _, fc := range []*fractal.Context{ctx, inProcess(fractal.WithWorkers(2), fractal.WithCores(1))(t)} {
		got, err := FSM(bg, fc, fc.FromGraph(raw), 3, FSMOptions{MaxEdges: 3})
		if err != nil {
			t.Fatal(err)
		}
		fsmEqualsOracle(t, "fsm-parallel", got, want)
	}
}

// fsmRingMultigraph is scripts/check_dist.sh's multi.el: a ring of 60
// label-A vertices (29 and 59 are B) with chords at +2, all label x; x
// doubles every tenth ring edge, an infrequent y doubles three more, and one
// z edge is infrequent and simple.
func fsmRingMultigraph(t *testing.T) *graph.Graph {
	t.Helper()
	var b strings.Builder
	const n = 60
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "v %d %s\n", i, map[bool]string{false: "A", true: "B"}[i%30 == 29])
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e %d %d x\ne %d %d x\n", i, (i+1)%n, i, (i+2)%n)
	}
	for i := 0; i < n; i += 10 {
		fmt.Fprintf(&b, "e %d %d x\n", i, i+1)
	}
	for i := 5; i < n; i += 20 {
		fmt.Fprintf(&b, "e %d %d y\n", i, i+1)
	}
	b.WriteString("e 0 30 z\n")
	g, err := graph.LoadEdgeList(strings.NewReader(b.String()), "multi")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFSMMultigraphLevelsExact: on a multigraph a level's embeddings whose
// parallel edges fold into fewer pattern edges belong to no pattern of the
// level, so every level reports patterns of its own edge count only. Each
// Frequent entry has its level's edge count, the entries add up to PerLevel,
// and a pattern's support is the same whatever MaxEdges runs past its level
// (the one-edge pattern's 57 and the triangle's 54 at support 4, which the
// later levels used to overwrite with 9 and 16).
func TestFSMMultigraphLevelsExact(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(fsmRingMultigraph(t))
	supports := map[string]int64{} // code -> support at the first MaxEdges that found it
	for maxEdges := 1; maxEdges <= 4; maxEdges++ {
		res, err := FSM(bg, ctx, g, 4, FSMOptions{MaxEdges: maxEdges})
		if err != nil {
			t.Fatal(err)
		}
		levels := 0
		for _, n := range res.PerLevel {
			levels += n
		}
		if len(res.Frequent) != levels || len(res.PerLevel) != maxEdges || res.PerLevel[maxEdges-1] == 0 {
			t.Errorf("maxedges %d: %d patterns, per level %v", maxEdges, len(res.Frequent), res.PerLevel)
		}
		perEdges := make([]int, maxEdges)
		for code, ds := range res.Frequent {
			e := ds.Pattern().NumEdges()
			if e < 1 || e > maxEdges {
				t.Fatalf("maxedges %d: pattern %q has %d edges", maxEdges, code, e)
			}
			perEdges[e-1]++
			if was, ok := supports[code]; ok && was != ds.Support() {
				t.Errorf("maxedges %d: pattern %q has support %d, %d at a lower MaxEdges", maxEdges, code, ds.Support(), was)
			}
			supports[code] = ds.Support()
		}
		if !slices.Equal(perEdges, res.PerLevel) {
			t.Errorf("maxedges %d: patterns by edge count %v, per level %v", maxEdges, perEdges, res.PerLevel)
		}
	}
}

// TestFSMRefusesMaxEdgesOutOfRange: 0 means the default; a negative bound or
// one past what a pattern can hold is a typed error, not three levels or a
// panic in the pattern builder.
func TestFSMRefusesMaxEdgesOutOfRange(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(k4Pendant())
	for _, bad := range []int{-4, MaxFSMEdges + 1} {
		var me *MaxEdgesError
		if _, err := FSM(bg, ctx, g, 1, FSMOptions{MaxEdges: bad}); !errors.As(err, &me) || me.Got != bad {
			t.Errorf("MaxEdges %d: %v, want a *MaxEdgesError", bad, err)
		}
	}
	if res, err := FSM(bg, ctx, g, 1, FSMOptions{}); err != nil || len(res.PerLevel) != 3 {
		t.Errorf("MaxEdges 0: %v, want the default three levels", err)
	}
}
