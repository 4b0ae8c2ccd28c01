package pattern

// Isomorphism and automorphism computation (Definition 3 of the paper).
// Patterns are tiny, so a label/degree-pruned backtracking search over vertex
// bijections is both simple and fast. One search (maps) serves every
// question: p and q are isomorphic when p maps onto q with as many edges,
// the automorphisms of p are the maps of p onto itself, and the spanning
// subgraphs of q isomorphic to p are the maps of p onto q over |Aut(p)|.

// Isomorphic reports whether p and q are isomorphic labeled graphs.
func Isomorphic(p, q *Pattern) bool { return p.m == q.m && maps(p, q, nil) > 0 }

// Automorphisms returns every permutation a (as a slice with a[v] = image of
// v) that maps p onto itself preserving vertex labels, adjacency, and edge
// labels. The identity is always included; the result is the automorphism
// group Aut(p) listed exhaustively.
func Automorphisms(p *Pattern) [][]int {
	var out [][]int
	maps(p, p, &out)
	return out
}

// NumAutomorphisms returns |Aut(p)|, counted without building the group.
func NumAutomorphisms(p *Pattern) int { return maps(p, p, nil) }

// maps returns the number of vertex bijections f of p onto q that keep
// vertex labels and send every edge of p onto an edge of q with its label,
// and appends each to *out when out is non-nil. When p and q have as many
// edges, such an f sends non-edges onto non-edges too — it is an
// isomorphism — and the search prunes on that as well.
func maps(p, q *Pattern, out *[][]int) int {
	if p.n != q.n || p.m > q.m {
		return 0
	}
	s := mapSearch{p: p, q: q, exact: p.m == q.m, out: out}
	return s.extend(0, 0)
}

// mapSearch is the state of one maps search: perm[u] is the image of each
// vertex u already placed.
type mapSearch struct {
	p, q  *Pattern
	exact bool
	perm  [MaxVertices]int
	out   *[][]int
}

// extend places vertex v and every vertex after it, given the images used
// by the ones before, and returns the number of completed maps.
func (s *mapSearch) extend(v int, used uint32) int {
	p, q := s.p, s.q
	if v == p.n {
		if s.out != nil {
			*s.out = append(*s.out, append([]int(nil), s.perm[:v]...))
		}
		return 1
	}
	// want: the images of v's neighbors placed so far, which v's image
	// must be adjacent to (and, in an exact search, to nothing else placed).
	var want uint32
	for u := 0; u < v; u++ {
		if p.HasEdge(v, u) {
			want |= 1 << uint(s.perm[u])
		}
	}
	found := 0
	for img := 0; img < p.n; img++ {
		adj := q.AdjMask(img)
		switch {
		case used&(1<<uint(img)) != 0, p.vlabels[v] != q.vlabels[img]:
			continue
		case s.exact && (p.Degree(v) != q.Degree(img) || adj&used != want):
			continue
		case !s.exact && (p.Degree(v) > q.Degree(img) || adj&want != want):
			continue
		}
		ok := true
		for u := 0; u < v && ok; u++ {
			ok = !p.HasEdge(v, u) || p.EdgeLabel(v, u) == q.EdgeLabel(img, s.perm[u])
		}
		if ok {
			s.perm[v] = img
			found += s.extend(v+1, used|1<<uint(img))
		}
	}
	return found
}
