package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReduceVertexFilter(t *testing.T) {
	g := buildPath(6) // 0-1-2-3-4-5
	r := Reduce(g, func(v VertexID, _ *Graph) bool { return v >= 2 }, nil)
	if r.NumVertices() != 4 {
		t.Fatalf("|V'|=%d, want 4", r.NumVertices())
	}
	if r.NumEdges() != 3 { // 2-3,3-4,4-5
		t.Fatalf("|E'|=%d, want 3", r.NumEdges())
	}
	// Kept vertices are renumbered densely: the view is the path 0-1-2-3.
	for e := 0; e < r.NumEdges(); e++ {
		if ne := r.EdgeByID(EdgeID(e)); ne.Src != VertexID(e) || ne.Dst != VertexID(e+1) {
			t.Errorf("edge %d is %d-%d, want %d-%d", e, ne.Src, ne.Dst, e, e+1)
		}
	}
}

func TestReduceEdgeFilterKeepsIsolatedVertices(t *testing.T) {
	g := buildPath(4)
	r := Reduce(g, nil, func(e EdgeID, _ *Graph) bool { return false })
	if r.NumVertices() != 4 || r.NumEdges() != 0 {
		t.Fatalf("got |V'|=%d |E'|=%d, want 4,0 (filter keeps isolated vertices)",
			r.NumVertices(), r.NumEdges())
	}
}

func TestReducePreservesLabelsAndKeywords(t *testing.T) {
	b := NewBuilder("kw")
	v0 := b.AddVertex(3)
	v1 := b.AddVertex(5)
	e := b.MustAddEdge(v0, v1, 9)
	k := b.Dict().Intern("drama")
	b.SetVertexKeywords(v1, k)
	b.SetEdgeKeywords(e, k)
	g := b.Build()

	r := Reduce(g, nil, nil)
	if r.VertexLabel(0) != 3 || r.VertexLabel(1) != 5 {
		t.Error("vertex labels lost in reduction")
	}
	if r.EdgeLabel(0) != 9 {
		t.Error("edge labels lost in reduction")
	}
	if ks := r.VertexKeywords(1); len(ks) != 1 || ks[0] != k {
		t.Error("vertex keywords lost in reduction")
	}
	if ks := r.EdgeKeywords(0); len(ks) != 1 || ks[0] != k {
		t.Error("edge keywords lost in reduction")
	}
	if r.Dict() != g.Dict() {
		t.Error("reduced graph should share the dictionary")
	}
}

// Property: reduction with a vertex predicate keeps exactly the vertices and
// the edges whose endpoints both pass, renumbered densely in original order
// with their labels.
func TestReducePropertyConsistentMapping(t *testing.T) {
	f := func(seed int64, threshold uint8) bool {
		g := randomGraph(20, 0.25, seed)
		cut := VertexID(threshold % 20)
		vf := func(v VertexID, _ *Graph) bool { return v >= cut }
		r := Reduce(g, vf, nil)
		if r.NumVertices() != g.NumVertices()-int(cut) {
			return false
		}
		wantE := 0
		for id := 0; id < g.NumEdges(); id++ {
			e := g.EdgeByID(EdgeID(id))
			if e.Src >= cut && e.Dst >= cut {
				if !r.HasEdge(e.Src-cut, e.Dst-cut) {
					return false
				}
				wantE++
			}
		}
		if r.NumEdges() != wantE {
			return false
		}
		for v := VertexID(0); int(v) < r.NumVertices(); v++ {
			if g.VertexLabel(v+cut) != r.VertexLabel(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// reduceByBuilder is the reference reduction: the kept vertices and edges
// replayed, in order, through a Builder, which is how Reduce built its
// result before it built at final size.
func reduceByBuilder(g *Graph, vf VertexFilter, ef EdgeFilter) *Graph {
	newID := make([]VertexID, g.NumVertices())
	b := NewBuilder(g.name + "-reduced")
	b.dict = g.dict
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		newID[v] = NilVertex
		if vf == nil || vf(v, g) {
			newID[v] = b.AddVertex(g.VertexLabels(v)...)
			if ks := g.VertexKeywords(v); ks != nil {
				b.SetVertexKeywords(newID[v], ks...)
			}
		}
	}
	for id := EdgeID(0); int(id) < g.NumEdges(); id++ {
		e := g.EdgeByID(id)
		if newID[e.Src] == NilVertex || newID[e.Dst] == NilVertex || ef != nil && !ef(id, g) {
			continue
		}
		nid := b.MustAddEdge(newID[e.Src], newID[e.Dst], e.Labels...)
		if ks := g.EdgeKeywords(id); ks != nil {
			b.SetEdgeKeywords(nid, ks...)
		}
	}
	return b.Build()
}

// TestReduceMatchesBuilderReference holds Reduce to the Builder round trip
// it replaced, over the randomized recipes (multi-labels, keywords, parallel
// edges, isolated vertices) built and decoded from .fgr: the same .fgr
// bytes under vertex filters, edge filters, both and neither, every family
// in the same in-memory form, the same label count and uniformity, and no
// edge-id index until something reads one.
func TestReduceMatchesBuilderReference(t *testing.T) {
	for _, rec := range ingestRecipes {
		t.Run(rec.name, func(t *testing.T) {
			for seed := int64(0); seed < 24; seed++ {
				built := rec.build(rand.New(rand.NewSource(seed))).Build()
				decoded, err := DecodeFGR(EncodeFGR(built))
				if err != nil {
					t.Fatal(err)
				}
				r := rand.New(rand.NewSource(seed))
				keepV := make([]bool, built.NumVertices())
				for v := range keepV {
					keepV[v] = r.Intn(4) != 0 || seed%6 == 5 // a sixth keep no edge at all
				}
				keepE := make([]bool, built.NumEdges())
				for id := range keepE {
					keepE[id] = r.Intn(3) != 0 && seed%6 != 5
				}
				vf := func(v VertexID, _ *Graph) bool { return keepV[v] }
				ef := func(id EdgeID, _ *Graph) bool { return keepE[id] }
				for _, mode := range []struct {
					name string
					vf   VertexFilter
					ef   EdgeFilter
				}{{"none", nil, nil}, {"vertices", vf, nil}, {"edges", nil, ef}, {"both", vf, ef}} {
					for src, g := range map[string]*Graph{"built": built, "decoded": decoded} {
						what := fmt.Sprintf("seed %d %s %s", seed, src, mode.name)
						got, want := Reduce(g, mode.vf, mode.ef), reduceByBuilder(g, mode.vf, mode.ef)
						if got.EdgeIndexed() {
							t.Errorf("%s: Reduce built the edge-id index", what)
						}
						sameForm(t, what, got, want)
						if !bytes.Equal(EncodeFGR(got), EncodeFGR(want)) {
							t.Errorf("%s: .fgr bytes differ from the Builder reference's", what)
						}
					}
				}
			}
		})
	}
}

// sameForm fails unless got and want hold each label and keyword family in
// the same form (offsets or none, the same payload) and agree on what is
// derived from them.
func sameForm(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	for _, f := range []struct {
		name             string
		gOff, wOff       []int32
		gPacked, wPacked []Label
	}{
		{"vertex labels", got.vlabOff, want.vlabOff, got.vlab, want.vlab},
		{"edge labels", got.elabOff, want.elabOff, got.elab, want.elab},
		{"vertex keywords", got.vkwOff, want.vkwOff, got.vkw, want.vkw},
		{"edge keywords", got.ekwOff, want.ekwOff, got.ekw, want.ekw},
	} {
		if (f.gOff == nil) != (f.wOff == nil) || !sliceEq(f.gOff, f.wOff) || !sliceEq(f.gPacked, f.wPacked) {
			t.Errorf("%s: %s are %v %v, the Builder's %v %v", what, f.name, f.gOff, f.gPacked, f.wOff, f.wPacked)
		}
	}
	gvl, gel, gok := got.UniformLabels()
	wvl, wel, wok := want.UniformLabels()
	if got.hasKW != want.hasKW || got.NumLabels() != want.NumLabels() || gvl != wvl || gel != wel || gok != wok ||
		got.vlabFixed != want.vlabFixed || got.elabFixed != want.elabFixed || got.vlabMask != want.vlabMask || got.elabMask != want.elabMask {
		t.Errorf("%s: derived fields differ from the Builder's", what)
	}
}

// TestReduceAllocatesFinalSize is Reduce's memory gate: on a labelled
// multigraph at the size of the repository benchmark's FSM input, with
// keywords on a few elements, a reduction that drops a third of the edges
// and a tenth of the vertices allocates at most what allocating its result's
// arrays, a |V| renumbering and an |E|-bit edge mask allocates, plus 1 KiB
// (the Graph, the label census's bitset). The Builder round trip it
// replaced allocated 3.4 times that: arrays grown by append, a label table
// per family, a second vertex column.
func TestReduceAllocatesFinalSize(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := NewBuilder("reduce-budget")
	const n = 4500
	for v := range n {
		ls := []Label{Label(r.Intn(37))}
		if v%50 == 0 {
			ls = append(ls, Label(37+r.Intn(3)))
		}
		b.AddVertex(ls...)
		if v%97 == 0 {
			b.SetVertexKeywords(VertexID(v), Label(r.Intn(5)))
		}
	}
	for v := 1; v < n; v++ {
		for range 2 {
			u := VertexID(r.Intn(v))
			b.MustAddEdge(u, VertexID(v), Label(r.Intn(3)))
			if r.Intn(20) == 0 {
				b.MustAddEdge(u, VertexID(v), Label(3)) // parallel, other label
			}
		}
	}
	g := b.Build()
	vf := func(v VertexID, _ *Graph) bool { return v%10 != 3 }
	ef := func(id EdgeID, _ *Graph) bool { return id%3 != 0 }
	var red *Graph
	got := allocated(func() { red = Reduce(g, vf, ef) })
	limit := arraysCost(g.NumVertices(), 2*((g.NumEdges()+63)/64),
		len(red.adjOff), len(red.adjV), len(red.esrc), len(red.edst),
		len(red.vlabOff), len(red.vlab), len(red.elabOff), len(red.elab),
		len(red.vkwOff), len(red.vkw), len(red.ekwOff), len(red.ekw)) + 1<<10
	if got > limit {
		t.Errorf("Reduce allocated %d B, want at most %d: its result's arrays, the two scratch arrays and 1 KiB", got, limit)
	}
	ref := allocated(func() { reduceByBuilder(g, vf, ef) })
	t.Logf("Reduce %d B (limit %d), Builder round trip %d B", got, limit, ref)
}

var arraysSink [][]int32

// arraysCost returns what allocating one array of 4-byte words per nonzero
// length allocates, size-class and page rounding included.
func arraysCost(lens ...int) uint64 {
	arraysSink = make([][]int32, 0, len(lens))
	defer func() { arraysSink = nil }()
	return allocated(func() {
		for _, n := range lens {
			if n > 0 {
				arraysSink = append(arraysSink, make([]int32, n))
			}
		}
	})
}
