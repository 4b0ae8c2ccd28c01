package graph

// Core decomposition and degeneracy ordering (Matula & Beck). The KClist
// clique-listing algorithm the paper optimizes in Appendix B orients the
// graph along a degeneracy ordering so that every vertex's out-neighborhood
// is at most the degeneracy — which is what bounds the recursion width.

// CoreDecomposition holds the k-core numbers and a degeneracy ordering.
type CoreDecomposition struct {
	// Core[v] is the largest k such that v belongs to a k-core.
	Core []int
	// Order lists the vertices in degeneracy order (repeatedly removing a
	// minimum-degree vertex).
	Order []VertexID
	// Rank[v] is v's position in Order.
	Rank []int
	// Degeneracy is the maximum core number.
	Degeneracy int
}

// Cores computes the core decomposition of g in O(|V| + |E|) with the
// bucket-based peeling algorithm.
func Cores(g *Graph) *CoreDecomposition {
	n := g.NumVertices()
	cd := &CoreDecomposition{
		Core:  make([]int, n),
		Order: make([]VertexID, 0, n),
		Rank:  make([]int, n),
	}
	if n == 0 {
		return cd
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(VertexID(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort by degree.
	bin := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos := make([]int, n)
	vert := make([]VertexID, n)
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = VertexID(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	removed := make([]bool, n)
	for i := 0; i < n; i++ {
		v := vert[i]
		cd.Core[v] = deg[v]
		if deg[v] > cd.Degeneracy {
			cd.Degeneracy = deg[v]
		}
		cd.Rank[v] = len(cd.Order)
		cd.Order = append(cd.Order, v)
		removed[v] = true
		for _, u := range g.Neighbors(v) {
			if removed[u] || deg[u] <= deg[v] {
				continue
			}
			// Move u one bucket down.
			du := deg[u]
			pu := pos[u]
			pw := bin[du]
			w := vert[pw]
			if u != w {
				pos[u], pos[w] = pw, pu
				vert[pu], vert[pw] = w, u
			}
			bin[du]++
			deg[u]--
		}
	}
	return cd
}
