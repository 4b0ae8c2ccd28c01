package graph

// This file implements the graph reduction optimization from Section 4.3 of
// the paper: between two fractal steps the user (or the system) can
// materialize a reduced view G' of the input graph by filtering vertices and
// edges, which shrinks both the memory footprint and the extension cost of
// subsequent enumeration.

// VertexFilter decides whether a vertex is kept in a reduced graph
// (operator R1 in Figure 10 of the paper).
type VertexFilter func(v VertexID, g *Graph) bool

// EdgeFilter decides whether an edge is kept in a reduced graph
// (operator R2 in Figure 10 of the paper).
type EdgeFilter func(e EdgeID, g *Graph) bool

// Reduce materializes the reduced graph keeping exactly the vertices passing
// vf (nil keeps all) and the edges passing ef (nil keeps all) whose two
// endpoints were kept. Isolated vertices that were kept remain in the view:
// the reduction is purely a filter, as in the paper. Kept vertices and
// edges are renumbered densely in their original order.
func Reduce(g *Graph, vf VertexFilter, ef EdgeFilter) *Graph {
	newID := make([]VertexID, g.NumVertices()) // NilVertex: not kept
	b := NewBuilder(g.name + "-reduced")
	b.dict = g.dict
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		if vf == nil || vf(v, g) {
			newID[v] = b.AddVertex(g.VertexLabels(v)...)
			if ks := g.VertexKeywords(v); ks != nil {
				b.SetVertexKeywords(newID[v], ks...)
			}
		} else {
			newID[v] = NilVertex
		}
	}
	for id := EdgeID(0); int(id) < g.NumEdges(); id++ {
		e := g.EdgeByID(id)
		if newID[e.Src] == NilVertex || newID[e.Dst] == NilVertex {
			continue
		}
		if ef != nil && !ef(id, g) {
			continue
		}
		nid := b.MustAddEdge(newID[e.Src], newID[e.Dst], e.Labels...)
		if ks := g.EdgeKeywords(id); ks != nil {
			b.SetEdgeKeywords(nid, ks...)
		}
	}
	return b.Build()
}
