package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// buildPath returns the path graph 0-1-2-...-(n-1).
func buildPath(n int) *Graph {
	b := NewBuilder("path")
	for i := 0; i < n; i++ {
		b.AddVertex(Label(i % 3))
	}
	for i := 0; i < n-1; i++ {
		b.MustAddEdge(VertexID(i), VertexID(i+1))
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("g")
	v0 := b.AddVertex(1)
	v1 := b.AddVertex(2)
	v2 := b.AddVertex(1)
	e0 := b.MustAddEdge(v0, v1, 7)
	e1 := b.MustAddEdge(v2, v1)
	g := b.Build()

	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got |V|=%d |E|=%d, want 3,2", g.NumVertices(), g.NumEdges())
	}
	if got := g.VertexLabel(v0); got != 1 {
		t.Errorf("VertexLabel(v0)=%d, want 1", got)
	}
	if got := g.EdgeLabel(e0); got != 7 {
		t.Errorf("EdgeLabel(e0)=%d, want 7", got)
	}
	if got := g.EdgeLabel(e1); got != -1 {
		t.Errorf("EdgeLabel(e1)=%d, want -1 for unlabeled", got)
	}
	// Endpoints are normalized src<dst.
	e := g.EdgeByID(e1)
	if e.Src != v1 || e.Dst != v2 {
		t.Errorf("edge endpoints not normalized: %+v", e)
	}
	if g.NumLabels() != 3 { // labels 1, 2, 7
		t.Errorf("NumLabels=%d, want 3", g.NumLabels())
	}
}

func TestSelfLoopRejected(t *testing.T) {
	b := NewBuilder("g")
	v := b.AddVertex()
	if _, err := b.AddEdge(v, v); err == nil {
		t.Fatal("self-loop accepted, want error")
	}
}

func TestEdgeUnknownVertexRejected(t *testing.T) {
	b := NewBuilder("g")
	v := b.AddVertex()
	if _, err := b.AddEdge(v, 5); err == nil {
		t.Fatal("edge to unknown vertex accepted, want error")
	}
	if _, err := b.AddEdge(-1, v); err == nil {
		t.Fatal("edge from negative vertex accepted, want error")
	}
}

func TestNeighborsSortedAndComplete(t *testing.T) {
	b := NewBuilder("g")
	for i := 0; i < 6; i++ {
		b.AddVertex()
	}
	// Star around 3 plus extras, inserted out of order.
	b.MustAddEdge(3, 5)
	b.MustAddEdge(3, 0)
	b.MustAddEdge(3, 4)
	b.MustAddEdge(1, 3)
	b.MustAddEdge(0, 1)
	g := b.Build()

	nb := g.Neighbors(3)
	want := []VertexID{0, 1, 4, 5}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(3)=%v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(3)=%v, want %v", nb, want)
		}
	}
	if g.Degree(3) != 4 || g.Degree(2) != 0 {
		t.Errorf("Degree wrong: deg(3)=%d deg(2)=%d", g.Degree(3), g.Degree(2))
	}
	// Incident edges correspond to sorted neighbors.
	for i, u := range g.Neighbors(3) {
		e := g.EdgeByID(g.IncidentEdges(3)[i])
		if e.Other(3) != u {
			t.Errorf("IncidentEdges misaligned at %d: edge %+v vs neighbor %d", i, e, u)
		}
	}
}

func TestHasEdgeAndEdgeBetween(t *testing.T) {
	g := buildPath(5)
	for i := 0; i < 4; i++ {
		if !g.HasEdge(VertexID(i), VertexID(i+1)) {
			t.Errorf("HasEdge(%d,%d)=false", i, i+1)
		}
		if !g.HasEdge(VertexID(i+1), VertexID(i)) {
			t.Errorf("HasEdge(%d,%d)=false (reverse)", i+1, i)
		}
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 4) || g.HasEdge(2, 2) {
		t.Error("HasEdge true for non-edge")
	}
	if g.EdgeBetween(0, 0) != NilEdge {
		t.Error("EdgeBetween(v,v) should be NilEdge")
	}
	id := g.EdgeBetween(2, 3)
	if id == NilEdge {
		t.Fatal("EdgeBetween(2,3)=NilEdge")
	}
	e := g.EdgeByID(id)
	if e.Src != 2 || e.Dst != 3 {
		t.Errorf("EdgeBetween returned %+v", e)
	}
}

func TestMultigraphEdgesBetween(t *testing.T) {
	b := NewBuilder("multi")
	b.AddVertex()
	b.AddVertex()
	e0 := b.MustAddEdge(0, 1, 1)
	e1 := b.MustAddEdge(0, 1, 2)
	g := b.Build()
	ids := g.EdgesBetween(0, 1, nil)
	if len(ids) != 2 {
		t.Fatalf("EdgesBetween found %d edges, want 2", len(ids))
	}
	if ids[0] != e0 || ids[1] != e1 {
		t.Errorf("EdgesBetween=%v, want [%d %d]", ids, e0, e1)
	}
	if got := g.EdgeBetween(1, 0); got != e0 {
		t.Errorf("EdgeBetween picks %d, want smallest id %d", got, e0)
	}
}

func TestEdgeOtherPanics(t *testing.T) {
	e := Edge{Src: 1, Dst: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestDensityAndStats(t *testing.T) {
	g := buildPath(5) // 4 edges, density 2*4/(5*4)=0.4
	if d := g.Density(); d != 0.4 {
		t.Errorf("Density=%v, want 0.4", d)
	}
	st := g.Stats()
	if st.V != 5 || st.E != 4 || st.Name != "path" {
		t.Errorf("Stats=%+v", st)
	}
	empty := NewBuilder("e").Build()
	if empty.Density() != 0 {
		t.Error("empty graph density must be 0")
	}
}

func TestLabelSets(t *testing.T) {
	var s labelSets
	s.set(0, []Label{5, 1, 5, 3, 1})
	s.set(2, []Label{7})
	if s.set(5, nil); len(s.runs) != 3 {
		t.Fatalf("an empty set past the end grew the table to %d", len(s.runs))
	}
	off, packed := s.pack(4)
	if want := []int32{0, 3, 3, 4, 4}; !sliceEq(off, want) {
		t.Fatalf("off=%v, want %v", off, want)
	}
	if want := []Label{1, 3, 5, 7}; !sliceEq(packed, want) {
		t.Fatalf("packed=%v, want %v", packed, want)
	}
	if &packed[0] != &s.data[0] {
		t.Error("sets written once and in order must be handed over, not copied")
	}
	// A replaced set leaves garbage in data and is out of order: pack copies.
	s.set(0, []Label{9, 8})
	s.set(2, nil)
	off, packed = s.pack(3)
	if !sliceEq(off, []int32{0, 2, 2, 2}) || !sliceEq(packed, []Label{8, 9}) {
		t.Fatalf("after replacement off=%v packed=%v", off, packed)
	}
}

func TestContainsLabel(t *testing.T) {
	ls := []Label{1, 3, 5}
	for _, l := range ls {
		if !ContainsLabel(ls, l) {
			t.Errorf("ContainsLabel(%v,%d)=false", ls, l)
		}
	}
	for _, l := range []Label{0, 2, 4, 6} {
		if ContainsLabel(ls, l) {
			t.Errorf("ContainsLabel(%v,%d)=true", ls, l)
		}
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct names interned to same label")
	}
	if got := d.Intern("alpha"); got != a {
		t.Error("re-intern returned different label")
	}
	if n := d.Name(a); n != "alpha" {
		t.Errorf("Name=%q", n)
	}
	if n := d.Name(99); n != "" {
		t.Errorf("Name(unknown)=%q, want empty", n)
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if d.Len() != 2 {
		t.Errorf("Len=%d, want 2", d.Len())
	}
}

func TestKeywords(t *testing.T) {
	b := NewBuilder("kw")
	v := b.AddVertex()
	u := b.AddVertex()
	e := b.MustAddEdge(v, u)
	k1 := b.Dict().Intern("paris")
	k2 := b.Dict().Intern("revolution")
	b.SetVertexKeywords(v, k1)
	b.SetEdgeKeywords(e, k2, k1)
	g := b.Build()

	if !g.HasKeywords() {
		t.Fatal("HasKeywords=false")
	}
	if ks := g.VertexKeywords(v); len(ks) != 1 || ks[0] != k1 {
		t.Errorf("VertexKeywords=%v", ks)
	}
	if ks := g.EdgeKeywords(e); len(ks) != 2 {
		t.Errorf("EdgeKeywords=%v", ks)
	}
	if g.Stats().Keywords != 2 {
		t.Errorf("Stats.Keywords=%d, want 2", g.Stats().Keywords)
	}
	plain := buildPath(3)
	if plain.HasKeywords() {
		t.Error("plain graph reports keywords")
	}
	if plain.VertexKeywords(0) != nil || plain.EdgeKeywords(0) != nil {
		t.Error("plain graph returns non-nil keywords")
	}
}

// randomGraph builds a random simple graph on n vertices with edge
// probability p, deterministic under seed.
func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("rand")
	for i := 0; i < n; i++ {
		b.AddVertex(Label(rng.Intn(4)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.MustAddEdge(VertexID(i), VertexID(j))
			}
		}
	}
	return b.Build()
}

// Property: the CSR adjacency is symmetric and matches the edge set exactly.
func TestAdjacencyMatchesEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(25, 0.2, seed)
		// Every edge appears in both adjacency runs.
		for id := 0; id < g.NumEdges(); id++ {
			e := g.EdgeByID(EdgeID(id))
			if !g.HasEdge(e.Src, e.Dst) || !g.HasEdge(e.Dst, e.Src) {
				return false
			}
		}
		// Sum of degrees equals 2|E| and adjacency is sorted.
		total := 0
		for v := 0; v < g.NumVertices(); v++ {
			nb := g.Neighbors(VertexID(v))
			total += len(nb)
			if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
				return false
			}
			for i, u := range nb {
				if g.EdgeByID(g.IncidentEdges(VertexID(v))[i]).Other(VertexID(v)) != u {
					return false
				}
			}
		}
		return total == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEnsureVertices(t *testing.T) {
	b := NewBuilder("g")
	b.EnsureVertices(4)
	if b.NumVertices() != 4 {
		t.Fatalf("NumVertices=%d, want 4", b.NumVertices())
	}
	b.EnsureVertices(2) // no shrink
	if b.NumVertices() != 4 {
		t.Fatalf("NumVertices shrank to %d", b.NumVertices())
	}
}

// TestLabelFastPathFlags pins the stride-1 label fast path (the fix for the
// AttributeScan regression of the flat refactor): both construction paths
// set the flags, exactly when every vertex/edge carries one label, and the
// accessors agree with the general span path either way.
func TestLabelFastPathFlags(t *testing.T) {
	uni := NewBuilder("fixed")
	for i := 0; i < 4; i++ {
		uni.AddVertex(Label(i % 2))
	}
	uni.MustAddEdge(0, 1, 7)
	uni.MustAddEdge(1, 2, 8)
	g := uni.Build()
	if !g.vlabFixed || !g.elabFixed {
		t.Errorf("single-label graph: vlabFixed=%v elabFixed=%v, want true", g.vlabFixed, g.elabFixed)
	}
	dec, err := DecodeFGR(EncodeFGR(g))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.vlabFixed || !dec.elabFixed {
		t.Errorf("decoded graph: vlabFixed=%v elabFixed=%v, want true", dec.vlabFixed, dec.elabFixed)
	}

	mixed := NewBuilder("mixed")
	mixed.AddVertex(1, 2) // two labels
	mixed.AddVertex()     // none
	mixed.AddVertex(3)
	mixed.MustAddEdge(0, 1)
	mixed.MustAddEdge(1, 2, 5)
	m := mixed.Build()
	if m.vlabFixed || m.elabFixed {
		t.Errorf("mixed-arity graph: vlabFixed=%v elabFixed=%v, want false", m.vlabFixed, m.elabFixed)
	}
	if got := m.VertexLabel(1); got != -1 {
		t.Errorf("unlabeled vertex label %d, want -1", got)
	}
	if got := m.EdgeLabel(0); got != -1 {
		t.Errorf("unlabeled edge label %d, want -1", got)
	}

	// Accessors agree across fast and general paths.
	for v := 0; v < g.NumVertices(); v++ {
		want := span(g.vlab, g.vlabOff, int32(v))
		got := g.VertexLabels(VertexID(v))
		if len(got) != len(want) || got[0] != want[0] {
			t.Errorf("VertexLabels(%d)=%v, span=%v", v, got, want)
		}
		if g.VertexLabel(VertexID(v)) != want[0] {
			t.Errorf("VertexLabel(%d)=%d, want %d", v, g.VertexLabel(VertexID(v)), want[0])
		}
	}
}

// TestUniformLabels pins the shared uniformity check the motifs fast path
// and the decomposition sweep both key off.
func TestUniformLabels(t *testing.T) {
	b := NewBuilder("uni")
	for i := 0; i < 3; i++ {
		b.AddVertex(4)
	}
	b.MustAddEdge(0, 1, 9)
	b.MustAddEdge(1, 2, 9)
	if vl, el, ok := b.Build().UniformLabels(); !ok || vl != 4 || el != 9 {
		t.Errorf("UniformLabels = (%d,%d,%v), want (4,9,true)", vl, el, ok)
	}

	ub := NewBuilder("unlabeled")
	ub.AddVertex()
	ub.AddVertex()
	ub.MustAddEdge(0, 1)
	if vl, el, ok := ub.Build().UniformLabels(); !ok || vl != -1 || el != -1 {
		t.Errorf("unlabeled UniformLabels = (%d,%d,%v), want (-1,-1,true)", vl, el, ok)
	}

	mb := NewBuilder("mixed-v")
	mb.AddVertex(1)
	mb.AddVertex(2)
	mb.MustAddEdge(0, 1)
	if _, _, ok := mb.Build().UniformLabels(); ok {
		t.Error("mixed vertex labels reported uniform")
	}

	eb := NewBuilder("mixed-e")
	eb.AddVertex(1)
	eb.AddVertex(1)
	eb.AddVertex(1)
	eb.MustAddEdge(0, 1, 5)
	eb.MustAddEdge(1, 2, 6)
	if _, _, ok := eb.Build().UniformLabels(); ok {
		t.Error("mixed edge labels reported uniform")
	}

	if _, _, ok := NewBuilder("empty").Build().UniformLabels(); ok {
		t.Error("empty graph reported uniform")
	}
}
