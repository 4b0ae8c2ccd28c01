package pattern

import (
	"math/rand"
	"slices"
	"testing"

	"fractal/internal/graph"
)

// decodeFuzzPattern builds a pattern from raw fuzz bits: nRaw selects the
// vertex count (1..MaxGenVertices), edges is a bitmask over vertex pairs in
// (u,v) lexicographic order, and vlabBits/elabBits assign two bits per
// vertex/edge (0 = NoLabel, else a small label).
func decodeFuzzPattern(nRaw, edges, vlabBits, elabBits uint32) *Pattern {
	n := int(nRaw%MaxGenVertices) + 1
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		if l := (vlabBits >> uint(2*v)) & 3; l != 0 {
			b.SetVertexLabel(v, graph.Label(l-1))
		}
	}
	idx := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if edges>>uint(idx)&1 != 0 {
				el := NoLabel
				if l := (elabBits >> uint(2*(idx%16))) & 3; l != 0 {
					el = graph.Label(l - 1)
				}
				b.AddEdge(u, v, el)
			}
			idx++
		}
	}
	return b.Build()
}

// FuzzDecompose asserts the cut rule is total (never panics, always returns
// a plan or an error) and deterministic, that every compiled plan is
// well-formed — its divisor times the leaves' orderings is |Aut(P)|, the
// cost estimate is positive, NeedTri agrees with the terms, Explain is
// stable across recompilations — and that neither acceptance nor the term
// multiset depends on how the pattern is numbered. Refusals must hold for every pattern outside the
// rule: non-uniform labels, disconnection, and shapes with no cut.
func FuzzDecompose(f *testing.F) {
	f.Add(uint32(2), uint32(7), uint32(0), uint32(0))        // triangle
	f.Add(uint32(3), uint32(63), uint32(0), uint32(0))       // K4 (refused)
	f.Add(uint32(3), uint32(0b011011), uint32(0), uint32(0)) // square
	f.Add(uint32(3), uint32(0b001011), uint32(0), uint32(0)) // star
	f.Add(uint32(3), uint32(0b100110), uint32(0), uint32(0)) // path
	f.Add(uint32(4), uint32(0b0000110011), uint32(0), uint32(0))
	f.Add(uint32(4), uint32(0b1100101001), uint32(0x1b), uint32(0x2d)) // labeled
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0))                  // single vertex
	f.Add(uint32(4), uint32(0b0000101111), uint32(0), uint32(0))       // bowtie-ish
	f.Fuzz(func(t *testing.T, nRaw, edges, vlabBits, elabBits uint32) {
		p := decodeFuzzPattern(nRaw, edges, vlabBits, elabBits)
		q := renumbered(p, rand.New(rand.NewSource(int64(edges))).Perm(p.NumVertices()))
		dp, err := Decompose(p)
		dq, errq := Decompose(q)
		if (err == nil) != (errq == nil) {
			t.Fatalf("%v decomposes (%v) but its renumbering %v does not (%v)", p, err, q, errq)
		}
		if err != nil {
			// Refusals must be stable too.
			if _, err2 := Decompose(p); err2 == nil {
				t.Fatalf("%v: refusal not deterministic", p)
			}
			return
		}
		if !p.Connected() {
			t.Fatalf("%v: disconnected pattern decomposed", p)
		}
		if !uniformPatternLabels(p) {
			t.Fatalf("%v: mixed-label pattern decomposed", p)
		}
		if dp.Rule == "" || len(dp.Terms) == 0 || dp.P != p {
			t.Fatalf("%v: degenerate plan %+v", p, dp)
		}
		if dp.Rule != "bowtie" && dp.Div*leafOrderings(dp.Terms[0]) != int64(NumAutomorphisms(p)) {
			t.Fatalf("%v: divisor %d times the leaves' orderings, |Aut| = %d", p, dp.Div, NumAutomorphisms(p))
		}
		needTri := false
		for _, term := range dp.Terms {
			if term.Coef == 0 || term.Cut < 1 || term.Cut > 2 || term.U < term.V {
				t.Fatalf("%v: malformed term %+v", p, term)
			}
			needTri = needTri || term.NeedsTri()
		}
		if needTri != dp.NeedTri {
			t.Fatalf("%v: NeedTri=%v, terms say %v", p, dp.NeedTri, needTri)
		}
		if terms := termStrings(dp); dq.Rule != dp.Rule || !slices.Equal(termStrings(dq), terms) {
			t.Fatalf("%v and its renumbering %v: %s %v vs %s %v", p, q, dp.Rule, terms, dq.Rule, termStrings(dq))
		}
		if dp.EstCost <= 0 {
			t.Fatalf("%v: EstCost=%g", p, dp.EstCost)
		}
		again, err := Decompose(p)
		if err != nil {
			t.Fatalf("%v: decomposition not deterministic: %v", p, err)
		}
		if again.Explain() != dp.Explain() {
			t.Fatalf("%v: Explain drifted across recompilations", p)
		}
		// The cost-model choice is also total and deterministic.
		ch, err := Choose(p)
		if err != nil {
			t.Fatalf("%v: Choose: %v", p, err)
		}
		if ch.Plan == nil || ch.Reason == "" {
			t.Fatalf("%v: Choice missing plan or reason", p)
		}
	})
}

// renumbered returns p with vertex v renamed perm[v].
func renumbered(p *Pattern, perm []int) *Pattern {
	b := NewBuilder(p.NumVertices())
	for v := range perm {
		b.SetVertexLabel(perm[v], p.VertexLabel(v))
		for u := 0; u < v; u++ {
			if p.HasEdge(u, v) {
				b.AddEdge(perm[u], perm[v], p.EdgeLabel(u, v))
			}
		}
	}
	return b.Build()
}

// termStrings is a plan's term multiset, sorted.
func termStrings(dp *DecompPlan) []string {
	var s []string
	for _, t := range dp.Terms {
		s = append(s, t.String())
	}
	slices.Sort(s)
	return s
}

// FuzzPlanCompile asserts that every compilable pattern yields a plan that
// is connected (every level after the first has a backward constraint),
// total (every pattern vertex is bound exactly once, with its label and all
// its backward edges), and restriction-consistent (the symmetry conditions
// translate one-to-one into per-level bounds that agree with BindingBounds)
// — and that non-connected patterns are rejected.
func FuzzPlanCompile(f *testing.F) {
	f.Add(uint32(2), uint32(7), uint32(0), uint32(0), false)       // triangle
	f.Add(uint32(3), uint32(63), uint32(0), uint32(0), false)      // K4
	f.Add(uint32(3), uint32(0b011011), uint32(0), uint32(0), true) // square, induced
	f.Add(uint32(4), uint32(0b1100101001), uint32(0x1b), uint32(0x2d), false)
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), false) // single vertex
	f.Add(uint32(5), uint32(0b101010101010101), uint32(0), uint32(0), true)
	f.Add(uint32(7), uint32(0xfffffff), uint32(0xaaaa), uint32(0x5555), false) // K8
	f.Fuzz(func(t *testing.T, nRaw, edges, vlabBits, elabBits uint32, induced bool) {
		p := decodeFuzzPattern(nRaw, edges, vlabBits, elabBits)
		compile := NewPlan
		if induced {
			compile = NewInducedPlan
		}
		pl, err := compile(p)
		if !p.Connected() {
			if err == nil {
				t.Fatalf("disconnected pattern %v compiled", p)
			}
			return
		}
		if err != nil {
			t.Fatalf("connected pattern %v failed to compile: %v", p, err)
		}

		n := p.NumVertices()
		// Total: every slice covers every level, Order is a permutation.
		if len(pl.Order) != n || len(pl.PosOf) != n || len(pl.VLabels) != n ||
			len(pl.Back) != n || len(pl.BackMask) != n ||
			len(pl.GreaterThan) != n || len(pl.SmallerThan) != n || len(pl.EstCands) != n {
			t.Fatalf("%v: plan slices not total: %+v", p, pl)
		}
		seen := make([]bool, n)
		for i, v := range pl.Order {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("%v: Order %v is not a permutation", p, pl.Order)
			}
			seen[v] = true
			if pl.PosOf[v] != i {
				t.Fatalf("%v: PosOf[%d]=%d, want %d", p, v, pl.PosOf[v], i)
			}
			if pl.VLabels[i] != p.VertexLabel(v) {
				t.Fatalf("%v: level %d label %d != vertex %d label %d",
					p, i, pl.VLabels[i], v, p.VertexLabel(v))
			}
		}

		// Connected: every level after the first has backward constraints,
		// and they are exactly the pattern edges into earlier levels.
		for i, v := range pl.Order {
			if i > 0 && len(pl.Back[i]) == 0 {
				t.Fatalf("%v: level %d has no backward constraint", p, i)
			}
			var mask uint32
			for _, b := range pl.Back[i] {
				if b.Pos < 0 || b.Pos >= i {
					t.Fatalf("%v: level %d back-ref to level %d", p, i, b.Pos)
				}
				u := pl.Order[b.Pos]
				if !p.HasEdge(v, u) {
					t.Fatalf("%v: level %d back-ref to non-edge (%d,%d)", p, i, v, u)
				}
				if b.ELabel != p.EdgeLabel(v, u) {
					t.Fatalf("%v: back-ref label %d != edge label %d", p, b.ELabel, p.EdgeLabel(v, u))
				}
				mask |= 1 << uint(b.Pos)
			}
			if mask != pl.BackMask[i] {
				t.Fatalf("%v: BackMask[%d]=%b, want %b", p, i, pl.BackMask[i], mask)
			}
			nBack := 0
			for j := 0; j < i; j++ {
				if p.HasEdge(v, pl.Order[j]) {
					nBack++
				}
			}
			if nBack != len(pl.Back[i]) {
				t.Fatalf("%v: level %d has %d back-refs, pattern has %d backward edges",
					p, i, len(pl.Back[i]), nBack)
			}
		}

		// Restriction consistency: one bound per symmetry condition, each
		// referring to an earlier level, never both directions for a pair,
		// and CheckBinding must agree with the BindingBounds window.
		if got, want := pl.NumRestrictions(), len(SymmetryConditions(p)); got != want {
			t.Fatalf("%v: %d restriction pairs, want %d (one per symmetry condition)", p, got, want)
		}
		for i := 0; i < n; i++ {
			in := map[int]bool{}
			for _, e := range pl.GreaterThan[i] {
				if e < 0 || e >= i || in[e] {
					t.Fatalf("%v: bad GreaterThan[%d]=%v", p, i, pl.GreaterThan[i])
				}
				in[e] = true
			}
			for _, e := range pl.SmallerThan[i] {
				if e < 0 || e >= i || in[e] {
					t.Fatalf("%v: bad SmallerThan[%d]=%v (or both directions)", p, i, pl.SmallerThan[i])
				}
				in[e] = true
			}
		}
		bound := make([]graph.VertexID, n)
		for j := range bound {
			bound[j] = graph.VertexID(10 * (j + 1))
		}
		for i := 0; i < n; i++ {
			lo, hi := pl.BindingBounds(i, bound)
			for v := graph.VertexID(0); v <= graph.VertexID(10*(n+1)); v++ {
				if inWindow := lo <= v && v <= hi; inWindow != pl.CheckBinding(i, v, bound) {
					t.Fatalf("%v: level %d vertex %d: window [%d,%d] disagrees with CheckBinding",
						p, i, v, lo, hi)
				}
			}
		}

		// Cost model sanity and determinism.
		for i, c := range pl.EstCands {
			if c <= 0 {
				t.Fatalf("%v: EstCands[%d]=%g", p, i, c)
			}
		}
		if pl.EstCost <= 0 {
			t.Fatalf("%v: EstCost=%g", p, pl.EstCost)
		}
		again, err := compile(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pl.Order {
			if again.Order[i] != pl.Order[i] {
				t.Fatalf("%v: recompilation changed order: %v vs %v", p, pl.Order, again.Order)
			}
		}
	})
}
