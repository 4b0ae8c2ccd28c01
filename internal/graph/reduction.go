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

// Reduced is a materialized reduced view of an original graph, with mappings
// between the compact IDs of the view and the IDs of the original graph so
// that subgraphs found in the view can be reported in original coordinates.
type Reduced struct {
	*Graph
	origV []VertexID // view vertex -> original vertex
	origE []EdgeID   // view edge -> original edge
}

// OrigVertex maps a view vertex ID back to the original graph.
func (r *Reduced) OrigVertex(v VertexID) VertexID { return r.origV[v] }

// OrigEdge maps a view edge ID back to the original graph.
func (r *Reduced) OrigEdge(e EdgeID) EdgeID { return r.origE[e] }

// Reduce materializes the reduced graph keeping exactly the vertices passing
// vf (nil keeps all) and the edges passing ef (nil keeps all) whose two
// endpoints were kept. Isolated vertices that were kept remain in the view:
// the reduction is purely a filter, as in the paper.
func Reduce(g *Graph, vf VertexFilter, ef EdgeFilter) *Reduced {
	newID := make([]VertexID, g.NumVertices()) // NilVertex: not kept
	b := NewBuilder(g.name + "-reduced")
	b.dict = g.dict
	r := &Reduced{}
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		if vf == nil || vf(v, g) {
			newID[v] = b.AddVertex(g.VertexLabels(v)...)
			if ks := g.VertexKeywords(v); ks != nil {
				b.SetVertexKeywords(newID[v], ks...)
			}
			r.origV = append(r.origV, v)
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
		r.origE = append(r.origE, id)
	}
	r.Graph = b.Build()
	return r
}

// ReduceToParticipants materializes the reduced graph containing only the
// vertices and edges that participate in at least one of the recorded
// subgraphs, identified here by their vertex and edge ID sets. This is the
// "transparent" FSM-style reduction described in Section 4.3: the system
// tracks which extensions were needed in the previous step and keeps only
// those for the next step's re-computation.
func ReduceToParticipants(g *Graph, vs map[VertexID]struct{}, es map[EdgeID]struct{}) *Reduced {
	return Reduce(g,
		func(v VertexID, _ *Graph) bool { _, ok := vs[v]; return ok },
		func(e EdgeID, _ *Graph) bool { _, ok := es[e]; return ok })
}
