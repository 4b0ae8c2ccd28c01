package graph

import (
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
