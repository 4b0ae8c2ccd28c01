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
//
// The result is built at its final size: one pass asks vf of every vertex,
// then ef of every edge between kept vertices, counting what stays; the
// endpoint arrays and each label and keyword family are then allocated once,
// at final length, in the form Build gives the same sets; the adjacency is
// built from the kept endpoints as Build builds it, and the edge-id index
// waits for its first reader. Besides the result's arrays Reduce allocates a
// |V| renumbering and an |E|-bit mask of the kept edges.
func Reduce(g *Graph, vf VertexFilter, ef EdgeFilter) *Graph {
	n, m := g.NumVertices(), g.NumEdges()
	newID := make([]VertexID, n) // NilVertex: not kept
	nv := 0
	for v := range newID {
		newID[v] = NilVertex
		if vf == nil || vf(VertexID(v), g) {
			newID[v] = VertexID(nv)
			nv++
		}
	}
	keep := make([]uint64, (m+63)/64)
	ne := 0
	for id := range m {
		if newID[g.esrc[id]] != NilVertex && newID[g.edst[id]] != NilVertex && (ef == nil || ef(EdgeID(id), g)) {
			keep[id/64] |= 1 << (id % 64)
			ne++
		}
	}
	keptV := func(v int) bool { return newID[v] != NilVertex }
	keptE := func(id int) bool { return keep[id/64]>>(id%64)&1 != 0 }

	r := &Graph{name: g.name + "-reduced", dict: g.dict, esrc: make([]VertexID, 0, ne), edst: make([]VertexID, 0, ne)}
	for id := range m {
		if keptE(id) {
			r.esrc = append(r.esrc, newID[g.esrc[id]]) // renumbering is monotone: src < dst holds
			r.edst = append(r.edst, newID[g.edst[id]])
		}
	}
	r.vlabOff, r.vlab = restrict(g.vlab, g.vlabOff, n, nv, keptV)
	r.elabOff, r.elab = restrict(g.elab, g.elabOff, m, ne, keptE)
	if g.hasKW {
		r.vkwOff, r.vkw = restrict(g.vkw, g.vkwOff, n, nv, keptV)
		r.ekwOff, r.ekw = restrict(g.ekw, g.ekwOff, m, ne, keptE)
		r.hasKW = len(r.vkw)+len(r.ekw) > 0
	}
	r.index(nv)
	return r
}

// restrict returns the sets of the count elements among the n of a family
// that kept selects, in order, in the form Builder.Build gives those sets
// (labelSets.pack): payload-only — one label when every element has the
// same — when each has exactly one label or none has any, offsets and
// payload otherwise. A counting pass decides the form and size, so each
// array is allocated once, at its final length.
func restrict(packed []Label, off []int32, n, count int, kept func(int) bool) ([]int32, []Label) {
	var first Label
	total, one, same := 0, true, true
	for i := range n {
		if !kept(i) {
			continue
		}
		s := span(packed, off, int32(i))
		if one = one && len(s) == 1; one {
			if total == 0 {
				first = s[0]
			}
			same = same && s[0] == first
		}
		total += len(s)
	}
	switch {
	case total == 0:
		return nil, nil
	case one && same:
		return nil, []Label{first}
	}
	var rOff []int32
	if !one {
		rOff = make([]int32, 1, count+1)
	}
	rPacked := make([]Label, 0, total)
	for i := range n {
		if kept(i) {
			rPacked = append(rPacked, span(packed, off, int32(i))...)
			if rOff != nil {
				rOff = append(rOff, int32(len(rPacked)))
			}
		}
	}
	return rOff, rPacked
}
