package pattern

// Sub-patterns are what level-wise mining prunes on: under an anti-monotone
// support (the MNI support of Section 2.2) a pattern with L edges can only be
// frequent when every connected pattern it contains with L-1 edges is, so a
// candidate with an infrequent sub-pattern is refused before any of its
// embeddings is aggregated.

// SubPatterns returns the connected sub-patterns of p with one edge fewer:
// for every edge u-v of p in (u, v) order with u < v, p without that edge and
// without an endpoint the deletion leaves isolated. A deletion that
// disconnects what remains yields nothing — the two parts are not one
// pattern — and neither does the deletion of the only edge. Each result
// keeps p's vertex order; isomorphic results are not merged, so the multiset
// of their classes does not depend on the numbering p is given in.
func (p *Pattern) SubPatterns() []*Pattern {
	var out []*Pattern
	p.subPatterns(func() *PBuilder { return new(PBuilder) }, func(q *Pattern) bool {
		out = append(out, q)
		return true
	})
	return out
}

// subPatterns hands yield each sub-pattern of p, built on the builder next
// returns for it, until yield returns false, and reports whether it never did.
func (p *Pattern) subPatterns(next func() *PBuilder, yield func(*Pattern) bool) bool {
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.HasEdge(u, v) {
				if b := next(); p.without(b, u, v) && !yield(b.Build()) {
					return false
				}
			}
		}
	}
	return true
}

// without builds p minus its edge u-v on b and reports whether that is a
// sub-pattern: connected, with at least one edge.
func (p *Pattern) without(b *PBuilder, u, v int) bool {
	var idx [MaxVertices]int
	n := 0
	for w := 0; w < p.n; w++ {
		if (w == u || w == v) && p.Degree(w) == 1 {
			idx[w] = -1 // isolated by the deletion
			continue
		}
		idx[w] = n
		n++
	}
	b.Reset(n)
	for w := 0; w < p.n; w++ {
		if idx[w] < 0 {
			continue
		}
		b.SetVertexLabel(idx[w], p.vlabels[w])
		for x := w + 1; x < p.n; x++ {
			if p.HasEdge(w, x) && !(w == u && x == v) {
				b.AddEdge(idx[w], idx[x], p.EdgeLabel(w, x))
			}
		}
	}
	return b.p.m > 0 && b.p.Connected()
}

// EverySubClass reports whether ok holds for the class of every one of p's
// SubPatterns, stopping at the first it fails for: one labelling search per
// sub-pattern asked, each built on the labeller's scratch and resolved
// through the class table.
func (l *Labeller) EverySubClass(p *Pattern, ok func(*Class) bool) bool {
	return p.subPatterns(func() *PBuilder { return &l.scratch }, func(q *Pattern) bool {
		cl, _ := l.Classify(q)
		return ok(cl)
	})
}
