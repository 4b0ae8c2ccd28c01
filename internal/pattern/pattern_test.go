package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fractal/internal/graph"
)

func TestBuilderAndAccessors(t *testing.T) {
	p := NewBuilder(3).
		SetVertexLabel(0, 5).
		SetVertexLabel(1, 7).
		AddEdge(0, 1, 9).
		AddEdge(1, 2, NoLabel).
		Build()
	if p.NumVertices() != 3 || p.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", p.NumVertices(), p.NumEdges())
	}
	if p.VertexLabel(0) != 5 || p.VertexLabel(2) != NoLabel {
		t.Error("vertex labels wrong")
	}
	if !p.HasEdge(0, 1) || !p.HasEdge(1, 0) || p.HasEdge(0, 2) {
		t.Error("adjacency wrong")
	}
	if p.EdgeLabel(0, 1) != 9 || p.EdgeLabel(1, 2) != NoLabel || p.EdgeLabel(0, 2) != NoLabel {
		t.Error("edge labels wrong")
	}
	if p.Degree(1) != 2 || p.Degree(2) != 1 {
		t.Error("degrees wrong")
	}
}

func TestBuilderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("self-loop", func() { NewBuilder(2).AddEdge(1, 1, NoLabel) })
	mustPanic("out-of-range", func() { NewBuilder(2).AddEdge(0, 5, NoLabel) })
	mustPanic("duplicate", func() { NewBuilder(2).AddEdge(0, 1, NoLabel).AddEdge(1, 0, NoLabel) })
	mustPanic("too-big", func() { NewBuilder(MaxVertices + 1) })
}

func TestConnected(t *testing.T) {
	if !Triangle().Connected() || !Path(5).Connected() || !NewBuilder(1).Build().Connected() {
		t.Error("connected patterns reported disconnected")
	}
	if !NewBuilder(0).Build().Connected() {
		t.Error("empty pattern should count as connected")
	}
	disc := NewBuilder(4).AddEdge(0, 1, NoLabel).AddEdge(2, 3, NoLabel).Build()
	if disc.Connected() {
		t.Error("disconnected pattern reported connected")
	}
}

func TestCommonShapes(t *testing.T) {
	cases := []struct {
		name string
		p    *Pattern
		n, m int
	}{
		{"triangle", Triangle(), 3, 3},
		{"clique4", Clique(4), 4, 6},
		{"clique5", Clique(5), 5, 10},
		{"path4", Path(4), 4, 3},
		{"star5", Star(5), 5, 4},
		{"cycle4", Cycle(4), 4, 4},
		{"chordalsquare", ChordalSquare(), 4, 5},
		{"house", House(), 5, 6},
		{"bowtie", Bowtie(), 5, 6},
		{"chordalhouse", ChordalHouse(), 5, 7},
		{"doublesquare", DoubleSquare(), 6, 7},
		{"prism", twoTrianglePrism(), 6, 9},
	}
	for _, c := range cases {
		if c.p.NumVertices() != c.n || c.p.NumEdges() != c.m {
			t.Errorf("%s: n=%d m=%d, want %d,%d", c.name, c.p.NumVertices(), c.p.NumEdges(), c.n, c.m)
		}
		if !c.p.Connected() {
			t.Errorf("%s: not connected", c.name)
		}
	}
	if len(SEEDQueries()) != 8 {
		t.Error("SEEDQueries should return q1..q8")
	}
}

func TestCanonicalKnownIsomorphic(t *testing.T) {
	// Two different labelings of the path on 3 vertices.
	p1 := NewBuilder(3).AddEdge(0, 1, NoLabel).AddEdge(1, 2, NoLabel).Build()
	p2 := NewBuilder(3).AddEdge(1, 0, NoLabel).AddEdge(0, 2, NoLabel).Build() // center is 0
	if p1.Canonical().Code != p2.Canonical().Code {
		t.Error("isomorphic paths got different codes")
	}
	// Path3 vs star3 (same thing) vs triangle: triangle differs.
	if p1.Canonical().Code == Triangle().Canonical().Code {
		t.Error("path3 and triangle got the same code")
	}
}

func TestCanonicalDistinguishesLabels(t *testing.T) {
	a := NewBuilder(2).SetVertexLabel(0, 1).AddEdge(0, 1, NoLabel).Build()
	b := NewBuilder(2).SetVertexLabel(1, 1).AddEdge(0, 1, NoLabel).Build()
	c := NewBuilder(2).SetVertexLabel(0, 2).AddEdge(0, 1, NoLabel).Build()
	if a.Canonical().Code != b.Canonical().Code {
		t.Error("label position should not matter under isomorphism")
	}
	if a.Canonical().Code == c.Canonical().Code {
		t.Error("different labels must give different codes")
	}
	// Edge labels too.
	d := NewBuilder(2).AddEdge(0, 1, 3).Build()
	e := NewBuilder(2).AddEdge(0, 1, 4).Build()
	if d.Canonical().Code == e.Canonical().Code {
		t.Error("different edge labels must give different codes")
	}
}

func TestCanonicalPermIsValid(t *testing.T) {
	p := House()
	c := p.Canonical()
	// Perm must be a permutation.
	seen := map[int]bool{}
	for _, pos := range c.Perm {
		if pos < 0 || pos >= p.NumVertices() || seen[pos] {
			t.Fatalf("Perm not a permutation: %v", c.Perm)
		}
		seen[pos] = true
	}
	// Relabeling by Perm must reproduce the canonical code.
	q := p.Relabel(c.Perm)
	if q.Canonical().Code != c.Code {
		t.Error("relabel by canonical perm changed the code")
	}
	// And the relabeled pattern's canonical perm should be identity-coded:
	// its own code equals the original canonical code.
	if q.Fingerprint() == p.Fingerprint() && c.Perm[0] != 0 {
		t.Log("fingerprints equal (pattern already canonical)")
	}
}

// randPattern builds a random connected labeled pattern with n vertices.
func randPattern(rng *rand.Rand, n int, labeled bool) *Pattern {
	b := NewBuilder(n)
	if labeled {
		for v := 0; v < n; v++ {
			b.SetVertexLabel(v, graph.Label(rng.Intn(3)))
		}
	}
	// Random spanning tree first, guaranteeing connectivity.
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		var l graph.Label = NoLabel
		if labeled {
			l = graph.Label(rng.Intn(2))
		}
		b.AddEdge(u, v, l)
	}
	p := b.Build()
	// Extra random edges.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !p.HasEdge(u, v) && rng.Float64() < 0.3 {
				var l graph.Label = NoLabel
				if labeled {
					l = graph.Label(rng.Intn(2))
				}
				b.AddEdge(u, v, l)
				p = b.Build()
			}
		}
	}
	return p
}

// Property: canonical code is invariant under random relabeling, and the
// returned permutation maps the pattern onto the same canonical form.
func TestCanonicalInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		p := randPattern(r, n, r.Intn(2) == 0)
		code := p.Canonical().Code
		perm := rng.Perm(n)
		q := p.Relabel(perm)
		return q.Canonical().Code == code
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIsomorphic(t *testing.T) {
	if !Isomorphic(Cycle(4), Cycle(4).Relabel([]int{2, 0, 3, 1})) {
		t.Error("relabel of square not isomorphic to square")
	}
	if Isomorphic(Cycle(4), Path(4)) {
		t.Error("square isomorphic to path4")
	}
	if Isomorphic(Path(3), Path(4)) {
		t.Error("different sizes isomorphic")
	}
	if Isomorphic(ChordalSquare(), Cycle(4)) {
		t.Error("diamond isomorphic to square (different edge count)")
	}
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		name string
		p    *Pattern
		want int
	}{
		{"triangle", Triangle(), 6},
		{"clique4", Clique(4), 24},
		{"path3", Path(3), 2},
		{"path4", Path(4), 2},
		{"star4", Star(4), 6},
		{"square", Cycle(4), 8},
		{"diamond", ChordalSquare(), 4},
		{"house", House(), 2},
		{"prism", twoTrianglePrism(), 12},
		{"singleton", NewBuilder(1).Build(), 1},
	}
	for _, c := range cases {
		if got := NumAutomorphisms(c.p); got != c.want {
			t.Errorf("%s: |Aut|=%d, want %d", c.name, got, c.want)
		}
	}
	// Labels break symmetry.
	lt := NewBuilder(3).SetVertexLabel(0, 1).AddEdge(0, 1, NoLabel).
		AddEdge(1, 2, NoLabel).AddEdge(0, 2, NoLabel).Build()
	if got := NumAutomorphisms(lt); got != 2 {
		t.Errorf("labeled triangle |Aut|=%d, want 2", got)
	}
}

func TestAutomorphismsAreAutomorphisms(t *testing.T) {
	p := House()
	for _, a := range Automorphisms(p) {
		q := p.Relabel(a)
		if q.Fingerprint() != p.Fingerprint() {
			t.Fatalf("claimed automorphism %v does not preserve pattern", a)
		}
	}
}

func TestSymmetryConditionsBreakAllAutomorphisms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		p := randPattern(r, n, false)
		conds := SymmetryConditions(p)
		// Over all n! assignments of distinct integers to pattern vertices,
		// the number satisfying all conditions must be n!/|Aut|.
		total, ok := 0, 0
		perm := make([]int, n)
		var rec func(i int, used uint32)
		rec = func(i int, used uint32) {
			if i == n {
				total++
				for _, c := range conds {
					if perm[c.A] >= perm[c.B] {
						return
					}
				}
				ok++
				return
			}
			for v := 0; v < n; v++ {
				if used&(1<<uint(v)) == 0 {
					perm[i] = v
					rec(i+1, used|1<<uint(v))
				}
			}
		}
		rec(0, 0)
		return ok*NumAutomorphisms(p) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFromEmbeddingVertexInduced(t *testing.T) {
	gb := graph.NewBuilder("g")
	for i := 0; i < 4; i++ {
		gb.AddVertex(graph.Label(i % 2))
	}
	gb.MustAddEdge(0, 1)
	gb.MustAddEdge(1, 2)
	gb.MustAddEdge(0, 2)
	gb.MustAddEdge(2, 3)
	g := gb.Build()

	p := FromEmbedding(g, []graph.VertexID{0, 1, 2}, nil)
	if !Isomorphic(p, NewBuilder(3).
		SetVertexLabel(0, 0).SetVertexLabel(1, 1).SetVertexLabel(2, 0).
		AddEdge(0, 1, -1).AddEdge(1, 2, -1).AddEdge(0, 2, -1).Build()) {
		t.Error("vertex-induced embedding pattern wrong")
	}
}

func TestFromEmbeddingEdgeInduced(t *testing.T) {
	gb := graph.NewBuilder("g")
	for i := 0; i < 3; i++ {
		gb.AddVertex()
	}
	e0 := gb.MustAddEdge(0, 1)
	gb.MustAddEdge(1, 2)
	e2 := gb.MustAddEdge(0, 2)
	g := gb.Build()

	// Only two of the triangle's edges: pattern must be a path, not triangle.
	p := FromEmbedding(g, []graph.VertexID{0, 1, 2}, []graph.EdgeID{e0, e2})
	if !Isomorphic(p, Path(3)) {
		t.Errorf("edge-induced pattern=%v, want path3", p)
	}
}

func TestPlanOrderIsConnected(t *testing.T) {
	for _, p := range SEEDQueries() {
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.Order) != p.NumVertices() {
			t.Fatalf("plan order incomplete: %v", pl.Order)
		}
		for i := 1; i < len(pl.Order); i++ {
			if len(pl.Back[i]) == 0 {
				t.Errorf("level %d has no backward constraint (disconnected order)", i)
			}
			for _, b := range pl.Back[i] {
				if b.Pos >= i {
					t.Errorf("backward ref to later level: %v at %d", b, i)
				}
				if !p.HasEdge(pl.Order[i], pl.Order[b.Pos]) {
					t.Errorf("backward ref without pattern edge at level %d", i)
				}
			}
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(NewBuilder(0).Build()); err == nil {
		t.Error("empty pattern plan should fail")
	}
	disc := NewBuilder(4).AddEdge(0, 1, NoLabel).AddEdge(2, 3, NoLabel).Build()
	if _, err := NewPlan(disc); err == nil {
		t.Error("disconnected pattern plan should fail")
	}
}

func TestPlanCheckBinding(t *testing.T) {
	pl, err := NewPlan(Triangle())
	if err != nil {
		t.Fatal(err)
	}
	// A triangle fully breaks symmetry: bindings must be strictly ordered
	// in whatever direction the plan encodes. Verify consistency: exactly
	// one of the 6 orderings of {10,20,30} passes.
	vals := [][3]graph.VertexID{
		{10, 20, 30}, {10, 30, 20}, {20, 10, 30}, {20, 30, 10}, {30, 10, 20}, {30, 20, 10},
	}
	pass := 0
	for _, v := range vals {
		bound := []graph.VertexID{v[0], v[1], v[2]}
		okAll := true
		for pos := 0; pos < 3; pos++ {
			if !pl.CheckBinding(pos, bound[pos], bound[:pos]) {
				okAll = false
				break
			}
		}
		if okAll {
			pass++
		}
	}
	if pass != 1 {
		t.Errorf("triangle plan admits %d orderings, want 1", pass)
	}
}

func TestStringAndFingerprint(t *testing.T) {
	p := NewBuilder(2).AddEdge(0, 1, 7).Build()
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
	q := NewBuilder(2).AddEdge(0, 1, 8).Build()
	if p.Fingerprint() == q.Fingerprint() {
		t.Error("fingerprint ignores edge labels")
	}
	if p.Fingerprint() != NewBuilder(2).AddEdge(0, 1, 7).Build().Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
}
