package subgraph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// enumerate runs a reference DFS over the embedding's extension machinery
// and calls visit for every embedding with exactly depth words.
func enumerate(e *Embedding, depth int, visit func(*Embedding)) {
	var rec func(d int)
	rec = func(d int) {
		if d == depth {
			visit(e)
			return
		}
		if d == 0 {
			for w := Word(0); int(w) < e.InitialDomain(); w++ {
				if !e.ValidInitial(w) {
					continue
				}
				e.Push(w)
				rec(d + 1)
				e.Pop()
			}
			return
		}
		exts, _ := e.Extensions(nil)
		for _, w := range exts {
			e.Push(w)
			rec(d + 1)
			e.Pop()
		}
	}
	rec(0)
}

// countEnumerated counts embeddings at the given depth.
func countEnumerated(e *Embedding, depth int) int {
	n := 0
	enumerate(e, depth, func(*Embedding) { n++ })
	return n
}

// randomGraph builds a random simple labeled graph.
func randomGraph(n int, p float64, labels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder("rand")
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
			}
		}
	}
	return b.Build()
}

// bruteVertexInduced counts connected induced k-vertex subgraphs by subset
// enumeration.
func bruteVertexInduced(g *graph.Graph, k int) int {
	n := g.NumVertices()
	count := 0
	set := make([]graph.VertexID, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(set) == k {
			if connectedVertices(g, set) {
				count++
			}
			return
		}
		for v := start; v < n; v++ {
			set = append(set, graph.VertexID(v))
			rec(v + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return count
}

func connectedVertices(g *graph.Graph, vs []graph.VertexID) bool {
	if len(vs) == 0 {
		return false
	}
	in := map[graph.VertexID]bool{}
	for _, v := range vs {
		in[v] = true
	}
	seen := map[graph.VertexID]bool{vs[0]: true}
	stack := []graph.VertexID{vs[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.Neighbors(v) {
			if in[u] && !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return len(seen) == len(vs)
}

// bruteEdgeInduced counts connected k-edge subgraphs by edge-subset
// enumeration.
func bruteEdgeInduced(g *graph.Graph, k int) int {
	m := g.NumEdges()
	count := 0
	set := make([]graph.EdgeID, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(set) == k {
			if connectedEdges(g, set) {
				count++
			}
			return
		}
		for e := start; e < m; e++ {
			set = append(set, graph.EdgeID(e))
			rec(e + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return count
}

func connectedEdges(g *graph.Graph, es []graph.EdgeID) bool {
	if len(es) == 0 {
		return false
	}
	seen := map[graph.EdgeID]bool{es[0]: true}
	cover := map[graph.VertexID]bool{}
	e0 := g.EdgeByID(es[0])
	cover[e0.Src], cover[e0.Dst] = true, true
	for changed := true; changed; {
		changed = false
		for _, id := range es {
			if seen[id] {
				continue
			}
			e := g.EdgeByID(id)
			if cover[e.Src] || cover[e.Dst] {
				seen[id] = true
				cover[e.Src], cover[e.Dst] = true, true
				changed = true
			}
		}
	}
	return len(seen) == len(es)
}

// bruteMatches counts pattern instances: injective homomorphisms that
// preserve edges and labels, divided by |Aut|.
func bruteMatches(g *graph.Graph, p *pattern.Pattern) int {
	n := p.NumVertices()
	used := map[graph.VertexID]bool{}
	m := make([]graph.VertexID, n)
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			count++
			return
		}
		for v := 0; v < g.NumVertices(); v++ {
			gv := graph.VertexID(v)
			if used[gv] {
				continue
			}
			if l := p.VertexLabel(i); l != pattern.NoLabel &&
				!graph.ContainsLabel(g.VertexLabels(gv), l) {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if p.HasEdge(i, j) && !g.HasEdge(gv, m[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			m[i] = gv
			used[gv] = true
			rec(i + 1)
			delete(used, gv)
		}
	}
	rec(0)
	return count / pattern.NumAutomorphisms(p)
}

func TestNewPanicsOnPlanMismatch(t *testing.T) {
	g := randomGraph(4, 0.5, 1, 1)
	for _, c := range []struct {
		kind Kind
		plan bool
	}{{VertexInduced, true}, {PatternInduced, false}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("kind=%v plan=%v: no panic", c.kind, c.plan)
				}
			}()
			var pl *pattern.Plan
			if c.plan {
				pl, _ = pattern.NewPlan(pattern.Triangle())
			}
			New(g, c.kind, pl)
		}()
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{VertexInduced, EdgeInduced, PatternInduced, Kind(9)} {
		if k.String() == "" {
			t.Error("empty Kind string")
		}
	}
}

func TestVertexInducedTriangleGraph(t *testing.T) {
	// Triangle graph: exactly one 3-vertex induced subgraph, three 2-vertex.
	b := graph.NewBuilder("tri")
	for i := 0; i < 3; i++ {
		b.AddVertex()
	}
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(0, 2)
	g := b.Build()
	e := New(g, VertexInduced, nil)
	if got := countEnumerated(e, 3); got != 1 {
		t.Errorf("3-vertex count=%d, want 1", got)
	}
	if got := countEnumerated(e, 2); got != 3 {
		t.Errorf("2-vertex count=%d, want 3", got)
	}
	// The single 3-embedding has all 3 edges (induced).
	enumerate(e, 3, func(em *Embedding) {
		if em.NumEdges() != 3 {
			t.Errorf("induced triangle has %d edges", em.NumEdges())
		}
	})
}

func TestVertexInducedMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(9, 0.35, 2, seed)
		e := New(g, VertexInduced, nil)
		for k := 1; k <= 4; k++ {
			if countEnumerated(e, k) != bruteVertexInduced(g, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEdgeInducedMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(8, 0.3, 2, seed)
		e := New(g, EdgeInduced, nil)
		for k := 1; k <= 4; k++ {
			if countEnumerated(e, k) != bruteEdgeInduced(g, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPatternInducedMatchesBruteForce(t *testing.T) {
	patterns := []*pattern.Pattern{
		pattern.Triangle(), pattern.Cycle(4), pattern.ChordalSquare(),
		pattern.Path(3), pattern.Star(4), pattern.Clique(4),
	}
	f := func(seed int64) bool {
		g := randomGraph(10, 0.3, 1, seed)
		for _, p := range patterns {
			pl, err := pattern.NewPlan(p)
			if err != nil {
				return false
			}
			e := New(g, PatternInduced, pl)
			if countEnumerated(e, p.NumVertices()) != bruteMatches(g, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPatternInducedLabeled(t *testing.T) {
	// Labeled path query on a labeled graph.
	b := graph.NewBuilder("lab")
	a0 := b.AddVertex(1)
	a1 := b.AddVertex(2)
	a2 := b.AddVertex(1)
	a3 := b.AddVertex(3)
	b.MustAddEdge(a0, a1)
	b.MustAddEdge(a1, a2)
	b.MustAddEdge(a2, a3)
	g := b.Build()

	q := pattern.NewBuilder(2).SetVertexLabel(0, 1).SetVertexLabel(1, 2).
		AddEdge(0, 1, pattern.NoLabel).Build()
	pl, err := pattern.NewPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, PatternInduced, pl)
	if got := countEnumerated(e, 2); got != bruteMatches(g, q) {
		t.Errorf("labeled edge query count=%d, want %d", got, bruteMatches(g, q))
	}
	if got := countEnumerated(e, 2); got != 2 { // (0,1) and (2,1)
		t.Errorf("labeled edge query count=%d, want 2", got)
	}
}

func TestPatternInducedEdgeLabels(t *testing.T) {
	b := graph.NewBuilder("el")
	v0 := b.AddVertex()
	v1 := b.AddVertex()
	v2 := b.AddVertex()
	b.MustAddEdge(v0, v1, 7)
	b.MustAddEdge(v1, v2, 8)
	g := b.Build()

	q := pattern.NewBuilder(2).AddEdge(0, 1, 7).Build()
	pl, err := pattern.NewPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, PatternInduced, pl)
	if got := countEnumerated(e, 2); got != 1 {
		t.Errorf("edge-labeled query count=%d, want 1", got)
	}
}

func TestPushPopRestoresState(t *testing.T) {
	g := randomGraph(10, 0.4, 2, 7)
	pl, err := pattern.NewPlan(pattern.Path(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Embedding{New(g, VertexInduced, nil), New(g, EdgeInduced, nil), New(g, PatternInduced, pl)} {
		kind := e.Kind()
		var exts []Word
		for w := Word(0); len(exts) == 0; w++ {
			if int(w) == e.InitialDomain() {
				t.Fatalf("%v: no word extends", kind)
			}
			e.Replay([]Word{w})
			exts, _ = e.Extensions(nil)
		}
		edges := slices.Clone(e.Edges())
		e.Push(exts[0])
		e.Edges() // the popped level is resolved
		e.Pop()
		if after, _ := e.Extensions(nil); !slices.Equal(after, exts) {
			t.Fatalf("%v: extensions changed after push/pop: %v vs %v", kind, exts, after)
		}
		if after := e.Edges(); !slices.Equal(after, edges) {
			t.Fatalf("%v: edges changed after push/pop: %v vs %v", kind, edges, after)
		}
		e.Reset()
		if e.Len() != 0 || e.NumVertices() != 0 || e.NumEdges() != 0 {
			t.Fatalf("%v: reset did not clear state", kind)
		}
	}
}

func TestReplayEqualsIncremental(t *testing.T) {
	g := randomGraph(12, 0.35, 2, 3)
	e := New(g, VertexInduced, nil)
	e.Push(2)
	exts, _ := e.Extensions(nil)
	if len(exts) == 0 {
		t.Skip("unlucky seed: no extensions")
	}
	e.Push(exts[0])
	want, _ := e.Extensions(nil)

	e2 := New(g, VertexInduced, nil)
	e2.Replay(e.Words())
	got, _ := e2.Extensions(nil)
	if len(got) != len(want) {
		t.Fatalf("replayed extensions differ: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("replayed extensions differ: %v vs %v", got, want)
		}
	}
	if e2.NumEdges() != e.NumEdges() {
		t.Error("replayed edge sets differ")
	}
}

func TestExtensionCostCounted(t *testing.T) {
	g := randomGraph(10, 0.5, 1, 5)
	e := New(g, VertexInduced, nil)
	e.Push(0)
	_, tested := e.Extensions(nil)
	if tested == 0 {
		t.Error("extension cost not counted")
	}
	if tested != len(g.Neighbors(0)) {
		t.Errorf("tested=%d, want deg(0)=%d", tested, len(g.Neighbors(0)))
	}
}

func TestEmbeddingPattern(t *testing.T) {
	b := graph.NewBuilder("g")
	for i := 0; i < 3; i++ {
		b.AddVertex(graph.Label(i))
	}
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(0, 2)
	g := b.Build()

	ev := New(g, VertexInduced, nil)
	ev.Push(0)
	ev.Push(1)
	ev.Push(2)
	if ev.Pattern().NumEdges() != 3 {
		t.Error("vertex-induced pattern should include all induced edges")
	}

	ee := New(g, EdgeInduced, nil)
	ee.Push(Word(g.EdgeBetween(0, 1)))
	ee.Push(Word(g.EdgeBetween(1, 2)))
	if p := ee.Pattern(); p.NumEdges() != 2 || p.NumVertices() != 3 {
		t.Errorf("edge-induced pattern=%v", p)
	}

	pl, _ := pattern.NewPlan(pattern.Triangle())
	ep := New(g, PatternInduced, pl)
	if ep.Pattern() != pattern.Triangle() && !pattern.Isomorphic(ep.Pattern(), pattern.Triangle()) {
		t.Error("pattern-induced Pattern() should be the plan's pattern")
	}
	if ep.Complete() {
		t.Error("empty pattern embedding reported complete")
	}
}

func TestValidInitial(t *testing.T) {
	b := graph.NewBuilder("g")
	b.AddVertex(1)
	b.AddVertex(2)
	b.MustAddEdge(0, 1)
	g := b.Build()

	q := pattern.NewBuilder(2).SetVertexLabel(0, 1).AddEdge(0, 1, pattern.NoLabel).Build()
	pl, _ := pattern.NewPlan(q)
	e := New(g, PatternInduced, pl)
	// The plan may root at either pattern vertex; whichever label it wants
	// at level 0, ValidInitial must agree with it.
	want := pl.VLabels[0]
	for v := Word(0); v < 2; v++ {
		expect := want == pattern.NoLabel ||
			graph.ContainsLabel(g.VertexLabels(graph.VertexID(v)), want)
		if e.ValidInitial(v) != expect {
			t.Errorf("ValidInitial(%d)=%v, want %v", v, e.ValidInitial(v), expect)
		}
	}
	ev := New(g, VertexInduced, nil)
	if !ev.ValidInitial(0) || !ev.ValidInitial(1) {
		t.Error("vertex-induced ValidInitial must always be true")
	}
}

func TestInitialDomain(t *testing.T) {
	g := randomGraph(7, 0.5, 1, 11)
	if New(g, VertexInduced, nil).InitialDomain() != g.NumVertices() {
		t.Error("vertex-induced initial domain wrong")
	}
	if New(g, EdgeInduced, nil).InitialDomain() != g.NumEdges() {
		t.Error("edge-induced initial domain wrong")
	}
}

// Property: every enumerated vertex-induced embedding is connected and its
// vertex set strictly grows in canonical-generation order (first word is the
// minimum of the set).
func TestCanonicalSequenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(9, 0.35, 1, seed)
		e := New(g, VertexInduced, nil)
		ok := true
		enumerate(e, 3, func(em *Embedding) {
			vs := em.Vertices()
			minV := vs[0]
			for _, v := range vs {
				if v < minV {
					ok = false
				}
			}
			if !connectedVertices(g, vs) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
