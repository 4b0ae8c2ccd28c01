package pattern

import (
	"fmt"
	"strings"
)

// Pattern decomposition (the DwarvesGraph direction named in ROADMAP item 1):
// instead of enumerating every embedding of a pattern, express its
// subgraph count as a small polynomial over *local counts* of core
// subpatterns — distinct-neighbor degrees d(v), per-adjacent-pair common
// neighbor counts c(u,v) (equivalently per-edge triangle counts), and
// per-vertex triangle counts tri(v) — with inclusion–exclusion correction
// terms for the collisions the algebra would otherwise overcount. The local
// counts come from one shared sorted-intersection sweep over the CSR arrays
// (the per-root kernel internal/subgraph.LocalTerms.At, run as one fractal
// step by fractal.Graph.EvalDecomps); evaluating the polynomial is O(#terms).
//
// Decompose is a *rule search*: each rule recognizes one family of patterns
// that admits an exact cut through a vertex or an edge (stars and
// double-stars cut at their centers; triangle-cored families cut at the
// triangle) and compiles the polynomial. Patterns outside every family
// (cycles C_k≥4, cliques K_k≥4, and anything with two independent cycles)
// return an error, and callers fall back to the enumeration Plan — the
// cost-model auto-selection in Choose and in the motifs fleet.
//
// All counts are NON-INDUCED subgraph counts (copies, one per automorphism
// class) over the *distinct* adjacency of the data graph — the simple-graph
// skeleton, matching what the plan engine enumerates on multigraphs.
// CombineInduced converts a mixed fleet's non-induced counts into the
// induced class counts the motifs kernel reports.

// MaxDecompVertices bounds the patterns the *induced conversion* handles
// (SpanningCounts enumerates 2^m edge subsets per pattern, so the motifs
// fleet only mixes engines up to this size). Decompose itself is exact for
// any pattern a rule matches, at any k.
const MaxDecompVertices = 5

// TermKind selects the local-count shape of one polynomial term.
type TermKind uint8

const (
	// TermVertex contributes 1 per graph vertex: Σ_v 1 = |V|.
	TermVertex TermKind = iota
	// TermPair contributes 1 per distinct adjacent pair: Σ_{u~v} 1.
	TermPair
	// TermStar contributes C(d(v), A) per vertex: closed stars around v.
	TermStar
	// TermTriTail contributes tri(v)·C(d(v)-2, A) per vertex: a triangle
	// anchored at v plus A tail edges at v avoiding the triangle.
	TermTriTail
	// TermBook contributes C(c(u,v), A) per distinct adjacent pair: books
	// with base edge u-v and A pages.
	TermBook
	// TermDoubleStar contributes, per ORDERED adjacent pair (u,v),
	// C(c,J)·C(d(u)-1-J, A-J)·C(d(v)-1-J, B-J) — the J-th
	// inclusion–exclusion layer of counting disjoint leaf sets of sizes A
	// at u and B at v. The sweep evaluates both orientations of each
	// unordered pair.
	TermDoubleStar
	// TermBull contributes c·(d(u)-2)·(d(v)-2) per distinct adjacent pair:
	// a triangle over u-v plus one pendant at each of u and v (the pendant
	// pair possibly colliding — corrected by a TermBook term).
	TermBull
	// TermTriPair contributes C(tri(v), A) per vertex: A-subsets of the
	// triangles through v (pairs sharing an edge are corrected by a
	// TermBook term).
	TermTriPair
)

// DecompTerm is one monomial of a decomposition polynomial: Coef/Div times
// the sum of the kind's local expression over the graph. Div is an exact
// divisor of the summed value (an automorphism or orientation factor);
// DecompPlan.Eval verifies the division and fails loudly otherwise.
type DecompTerm struct {
	Kind    TermKind
	A, B, J int
	Coef    int64
	Div     int64
	// Core indexes DecompPlan.Cores: the core subpattern whose local
	// counts the term reads (K1 for vertex counts, K2 for degrees/pairs,
	// K3 for anything touching common-neighbor or triangle counts).
	Core int
}

// Pair reports whether the term is evaluated per distinct adjacent pair
// (as opposed to per vertex).
func (t DecompTerm) Pair() bool {
	switch t.Kind {
	case TermPair, TermBook, TermDoubleStar, TermBull:
		return true
	}
	return false
}

// NeedsTri reports whether evaluating the term requires common-neighbor
// counts (the sorted-intersection part of the sweep).
func (t DecompTerm) NeedsTri() bool {
	switch t.Kind {
	case TermBook, TermBull, TermTriTail, TermTriPair:
		return true
	case TermDoubleStar:
		return t.J > 0
	}
	return false
}

// EvalPair returns the term's raw contribution for one distinct adjacent
// pair with distinct-neighbor degrees du, dv and c distinct common
// neighbors (Coef/Div are applied by Eval, over the full sum).
func (t DecompTerm) EvalPair(du, dv, c int64) int64 {
	switch t.Kind {
	case TermPair:
		return 1
	case TermBook:
		return Binom(c, int64(t.A))
	case TermDoubleStar:
		a, b, j := int64(t.A), int64(t.B), int64(t.J)
		return Binom(c, j)*Binom(du-1-j, a-j)*Binom(dv-1-j, b-j) +
			Binom(c, j)*Binom(dv-1-j, a-j)*Binom(du-1-j, b-j)
	case TermBull:
		return c * (du - 2) * (dv - 2)
	}
	return 0
}

// EvalVertex returns the term's raw contribution for one vertex with
// distinct-neighbor degree d and tri triangles through it.
func (t DecompTerm) EvalVertex(d, tri int64) int64 {
	switch t.Kind {
	case TermVertex:
		return 1
	case TermStar:
		return Binom(d, int64(t.A))
	case TermTriTail:
		return tri * Binom(d-2, int64(t.A))
	case TermTriPair:
		return Binom(tri, int64(t.A))
	}
	return 0
}

// DecompPlan is a compiled decomposition: the polynomial over local counts
// whose value is the non-induced subgraph count of P in any uniform-label
// graph. Immutable and reusable across graphs and runs, like Plan.
type DecompPlan struct {
	P *Pattern
	// Rule names the decomposition family that matched (stable, shown by
	// Explain and -explain tooling).
	Rule string
	// Terms is the polynomial; Cores the referenced core subpatterns.
	Terms []DecompTerm
	Cores []*Pattern
	// NeedTri reports whether any term requires the common-neighbor
	// (sorted-intersection) half of the sweep; without it the sweep is a
	// degree pass only.
	NeedTri bool
	// EstCost is the modeled cost of the local-count sweep, in the same
	// symbolic work units as Plan.EstCost (estimated element visits on the
	// estVertices/estDegree reference graph), so the two are comparable.
	EstCost float64
}

// Decomposition sweep cost symbols, comparable with Plan.EstCost: a degree
// pass touches each incidence once (estVertices·estDegree); the
// common-neighbor sweep merges both adjacency lists of every adjacent pair
// (estVertices·estDegree/2 pairs × 2·estDegree merge steps).
const (
	degPassCost = float64(estVertices) * float64(estDegree)
	triPassCost = float64(estVertices) * float64(estDegree) * float64(estDegree)
)

// Decompose searches the decomposition rules for p and compiles the
// matching polynomial. It returns an error when p is empty, disconnected,
// non-uniformly labeled (the local-count kernels are label-blind), or
// outside every rule family — callers treat the error as "fall back to the
// enumeration plan".
func Decompose(p *Pattern) (*DecompPlan, error) {
	n := p.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("pattern: cannot decompose empty pattern")
	}
	if !p.Connected() {
		return nil, fmt.Errorf("pattern: cannot decompose disconnected pattern %v", p)
	}
	if !uniformPatternLabels(p) {
		return nil, fmt.Errorf("pattern: decomposition is label-blind; pattern %v mixes labels", p)
	}
	dp := matchRule(p)
	if dp == nil {
		return nil, fmt.Errorf("pattern: no decomposition rule for %v (falls back to enumeration)", p)
	}
	dp.P = p
	for _, t := range dp.Terms {
		if t.NeedsTri() {
			dp.NeedTri = true
		}
	}
	dp.EstCost = degPassCost
	if dp.NeedTri {
		dp.EstCost += triPassCost
	}
	dp.Cores = coresFor(dp.Terms)
	return dp, nil
}

// uniformPatternLabels reports whether every vertex carries the same label
// and every edge carries the same label (NoLabel wildcards count as a
// label). Uniform patterns are exactly the ones whose counts on
// uniform-label graphs equal the unlabeled structural counts the
// label-blind sweep computes.
func uniformPatternLabels(p *Pattern) bool {
	n := p.NumVertices()
	for v := 1; v < n; v++ {
		if p.VertexLabel(v) != p.VertexLabel(0) {
			return false
		}
	}
	var el = NoLabel
	first := true
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !p.HasEdge(u, v) {
				continue
			}
			if first {
				el, first = p.EdgeLabel(u, v), false
			} else if p.EdgeLabel(u, v) != el {
				return false
			}
		}
	}
	return true
}

// coresFor builds the deduplicated core-subpattern list (K1/K2/K3) and
// rewrites each term's Core index into it.
func coresFor(terms []DecompTerm) []*Pattern {
	size := func(t DecompTerm) int {
		if t.NeedsTri() {
			return 3
		}
		if t.Pair() || t.Kind == TermStar {
			return 2
		}
		return 1
	}
	var cores []*Pattern
	idx := map[int]int{}
	for i, t := range terms {
		s := size(t)
		if _, ok := idx[s]; !ok {
			idx[s] = len(cores)
			cores = append(cores, Clique(s))
		}
		terms[i].Core = idx[s]
	}
	return cores
}

// matchRule runs the structural recognizers in a fixed order and returns
// the compiled terms, or nil when no family matches. Recognizers inspect
// the unlabeled structure only (labels were checked uniform).
func matchRule(p *Pattern) *DecompPlan {
	n, m := p.NumVertices(), p.NumEdges()
	switch {
	case n == 1:
		return &DecompPlan{Rule: "vertex",
			Terms: []DecompTerm{{Kind: TermVertex, Coef: 1, Div: 1}}}
	case n == 2:
		return &DecompPlan{Rule: "edge",
			Terms: []DecompTerm{{Kind: TermPair, Coef: 1, Div: 1}}}
	}
	if m == n-1 { // trees: stars and double-stars
		if hub := starHub(p); hub >= 0 {
			return &DecompPlan{Rule: fmt.Sprintf("star(%d)", n-1),
				Terms: []DecompTerm{{Kind: TermStar, A: n - 1, Coef: 1, Div: 1}}}
		}
		if a, b, ok := doubleStar(p); ok {
			div := int64(1)
			if a == b {
				div = 2 // both orientations of the ordered sweep hit each copy
			}
			terms := make([]DecompTerm, 0, b+1)
			coef := int64(1)
			for j := 0; j <= b; j++ {
				terms = append(terms, DecompTerm{Kind: TermDoubleStar, A: a, B: b, J: j, Coef: coef, Div: div})
				coef = -coef
			}
			return &DecompPlan{Rule: fmt.Sprintf("double-star(%d,%d)", a, b), Terms: terms}
		}
		return nil // deeper trees (P5, spiders) need path algebra: refuse
	}
	if t, ok := book(p); ok {
		div := int64(1)
		rule := fmt.Sprintf("book(%d)", t)
		if t == 1 {
			div = 3 // every edge of a triangle serves as the base
			rule = "triangle"
		}
		return &DecompPlan{Rule: rule,
			Terms: []DecompTerm{{Kind: TermBook, A: t, Coef: 1, Div: div}}}
	}
	if s, ok := tailedTriangle(p); ok {
		rule := "tailed-triangle"
		if s == 2 {
			rule = "cricket"
		} else if s > 2 {
			rule = fmt.Sprintf("tailed-triangle(%d)", s)
		}
		return &DecompPlan{Rule: rule,
			Terms: []DecompTerm{{Kind: TermTriTail, A: s, Coef: 1, Div: 1}}}
	}
	if isBull(p) {
		return &DecompPlan{Rule: "bull", Terms: []DecompTerm{
			{Kind: TermBull, Coef: 1, Div: 1},
			// Subtract the ordered pairs of distinct common neighbors the
			// product term counted as pendants: c·(c-1) = 2·C(c,2).
			{Kind: TermBook, A: 2, Coef: -2, Div: 1},
		}}
	}
	if isBowtie(p) {
		return &DecompPlan{Rule: "bowtie", Terms: []DecompTerm{
			// Pairs of triangles through v; pairs sharing an edge form a
			// diamond and are counted at both chord endpoints.
			{Kind: TermTriPair, A: 2, Coef: 1, Div: 1},
			{Kind: TermBook, A: 2, Coef: -2, Div: 1},
		}}
	}
	return nil
}

// starHub returns the hub of a star pattern (one vertex adjacent to all
// others, the rest leaves), or -1.
func starHub(p *Pattern) int {
	n := p.NumVertices()
	hub := -1
	for v := 0; v < n; v++ {
		switch p.Degree(v) {
		case n - 1:
			if hub >= 0 && n > 2 {
				return -1
			}
			hub = v
		case 1:
		default:
			return -1
		}
	}
	return hub
}

// doubleStar recognizes two adjacent centers with a and b leaves
// respectively (a ≥ b ≥ 1); P4 is the (1,1) case. Requires m == n-1
// (checked by the caller).
func doubleStar(p *Pattern) (a, b int, ok bool) {
	n := p.NumVertices()
	u, v := -1, -1
	for w := 0; w < n; w++ {
		if p.Degree(w) >= 2 {
			if u < 0 {
				u = w
			} else if v < 0 {
				v = w
			} else {
				return 0, 0, false
			}
		}
	}
	if u < 0 || v < 0 || !p.HasEdge(u, v) {
		return 0, 0, false
	}
	a, b = p.Degree(u)-1, p.Degree(v)-1
	if a < b {
		a, b = b, a
	}
	return a, b, true
}

// book recognizes B(t): a base edge u-v plus t pages each adjacent to
// exactly u and v. t=1 is the triangle, t=2 the diamond.
func book(p *Pattern) (t int, ok bool) {
	n, m := p.NumVertices(), p.NumEdges()
	t = n - 2
	if t < 1 || m != 2*t+1 {
		return 0, false
	}
	u, v := -1, -1
	for w := 0; w < n; w++ {
		switch p.Degree(w) {
		case n - 1:
			if u < 0 {
				u = w
			} else if v < 0 {
				v = w
			} else if n > 3 {
				return 0, false
			}
		case 2:
		default:
			return 0, false
		}
	}
	if n == 3 { // triangle: all degrees 2, pick any edge as the base
		return 1, true
	}
	if u < 0 || v < 0 || !p.HasEdge(u, v) {
		return 0, false
	}
	for w := 0; w < n; w++ {
		if w != u && w != v && (!p.HasEdge(w, u) || !p.HasEdge(w, v)) {
			return 0, false
		}
	}
	return t, true
}

// tailedTriangle recognizes a triangle with s ≥ 1 pendant edges all at one
// triangle vertex (s=1 the paw, s=2 the cricket).
func tailedTriangle(p *Pattern) (s int, ok bool) {
	n, m := p.NumVertices(), p.NumEdges()
	s = n - 3
	if s < 1 || m != n {
		return 0, false
	}
	apex := -1
	for w := 0; w < n; w++ {
		switch p.Degree(w) {
		case 2 + s:
			if apex >= 0 && s != 0 {
				return 0, false
			}
			apex = w
		case 1, 2:
		default:
			return 0, false
		}
	}
	if apex < 0 {
		return 0, false
	}
	bc := make([]int, 0, 2)
	for w := 0; w < n; w++ {
		if w == apex {
			continue
		}
		switch p.Degree(w) {
		case 2:
			bc = append(bc, w)
		case 1:
			if !p.HasEdge(w, apex) {
				return 0, false
			}
		}
	}
	return s, len(bc) == 2 && p.HasEdge(bc[0], bc[1]) &&
		p.HasEdge(bc[0], apex) && p.HasEdge(bc[1], apex)
}

// isBull recognizes the bull: a triangle x-y-z with one pendant at x and
// one at y.
func isBull(p *Pattern) bool {
	if p.NumVertices() != 5 || p.NumEdges() != 5 {
		return false
	}
	var deg3, deg1 []int
	z := -1
	for w := 0; w < 5; w++ {
		switch p.Degree(w) {
		case 3:
			deg3 = append(deg3, w)
		case 2:
			if z >= 0 {
				return false
			}
			z = w
		case 1:
			deg1 = append(deg1, w)
		default:
			return false
		}
	}
	if len(deg3) != 2 || len(deg1) != 2 || z < 0 {
		return false
	}
	x, y := deg3[0], deg3[1]
	if !p.HasEdge(x, y) || !p.HasEdge(x, z) || !p.HasEdge(y, z) {
		return false
	}
	// Each pendant hangs on a distinct degree-3 vertex.
	return p.HasEdge(deg1[0], x) != p.HasEdge(deg1[0], y) &&
		p.HasEdge(deg1[1], x) != p.HasEdge(deg1[1], y) &&
		p.HasEdge(deg1[0], x) != p.HasEdge(deg1[1], x)
}

// isBowtie recognizes two triangles sharing one vertex (the butterfly).
func isBowtie(p *Pattern) bool {
	if p.NumVertices() != 5 || p.NumEdges() != 6 {
		return false
	}
	apex := -1
	for w := 0; w < 5; w++ {
		switch p.Degree(w) {
		case 4:
			if apex >= 0 {
				return false
			}
			apex = w
		case 2:
		default:
			return false
		}
	}
	if apex < 0 {
		return false
	}
	// Each wing vertex pairs with exactly one other wing vertex; the two
	// non-apex edges must therefore be disjoint, closing two triangles.
	matched := 0
	for w := 0; w < 5; w++ {
		if w == apex {
			continue
		}
		if !p.HasEdge(w, apex) {
			return false
		}
		for x := w + 1; x < 5; x++ {
			if x != apex && p.HasEdge(w, x) {
				matched++
			}
		}
	}
	return matched == 2
}

// Eval combines the raw term sums (aligned with Terms) into the pattern's
// non-induced subgraph count, applying each term's Coef/Div and verifying
// divisions are exact — an inexact division means the sweep and the algebra
// disagree, which is a bug worth failing loudly over.
func (dp *DecompPlan) Eval(termSums []int64) (int64, error) {
	if len(termSums) != len(dp.Terms) {
		return 0, fmt.Errorf("pattern: decomp eval got %d sums for %d terms", len(termSums), len(dp.Terms))
	}
	var total int64
	for i, t := range dp.Terms {
		v := t.Coef * termSums[i]
		if t.Div != 1 {
			if v%t.Div != 0 {
				return 0, fmt.Errorf("pattern: decomp term %d of %s: %d not divisible by %d", i, dp.Rule, v, t.Div)
			}
			v /= t.Div
		}
		total += v
	}
	if total < 0 {
		return 0, fmt.Errorf("pattern: decomp %s evaluated to negative count %d", dp.Rule, total)
	}
	return total, nil
}

// Explain renders the decomposition for humans in the same spirit as
// Plan.Explain: the rule, the cost estimate with its units, and each
// polynomial term with the core subpattern it reads. Stable output, used by
// -explain tooling and golden tests.
func (dp *DecompPlan) Explain() string {
	var sb strings.Builder
	sweep := "degree pass"
	if dp.NeedTri {
		sweep = "degree + common-neighbor sweep"
	}
	fmt.Fprintf(&sb, "decomp: rule=%s, %d terms, %s, est cost %.3g ops (modeled element visits)\n",
		dp.Rule, len(dp.Terms), sweep, dp.EstCost)
	fmt.Fprintf(&sb, "pattern: %v\n", dp.P)
	for _, t := range dp.Terms {
		core := "K1"
		if len(dp.Cores) > 0 {
			core = fmt.Sprintf("K%d", dp.Cores[t.Core].NumVertices())
		}
		fmt.Fprintf(&sb, "  %s  [core %s]\n", t.String(), core)
	}
	sb.WriteString("locals: d(v)=distinct-neighbor degree, c(u,v)=distinct common neighbors per adjacent pair, tri(v)=triangles through v\n")
	return sb.String()
}

// String renders one term, e.g. "+ 1/3 · Σ_pairs C(c,1)".
func (t DecompTerm) String() string {
	var sb strings.Builder
	switch {
	case t.Coef >= 0:
		fmt.Fprintf(&sb, "+ %d", t.Coef)
	default:
		fmt.Fprintf(&sb, "- %d", -t.Coef)
	}
	if t.Div != 1 {
		fmt.Fprintf(&sb, "/%d", t.Div)
	}
	sb.WriteString(" · ")
	switch t.Kind {
	case TermVertex:
		sb.WriteString("Σ_v 1")
	case TermPair:
		sb.WriteString("Σ_pairs 1")
	case TermStar:
		fmt.Fprintf(&sb, "Σ_v C(d(v),%d)", t.A)
	case TermTriTail:
		fmt.Fprintf(&sb, "Σ_v tri(v)·C(d(v)-2,%d)", t.A)
	case TermBook:
		fmt.Fprintf(&sb, "Σ_pairs C(c,%d)", t.A)
	case TermDoubleStar:
		fmt.Fprintf(&sb, "Σ_pairs⇄ C(c,%d)·C(d(u)-1-%d,%d)·C(d(v)-1-%d,%d)", t.J, t.J, t.A-t.J, t.J, t.B-t.J)
	case TermBull:
		sb.WriteString("Σ_pairs c·(d(u)-2)·(d(v)-2)")
	case TermTriPair:
		fmt.Fprintf(&sb, "Σ_v C(tri(v),%d)", t.A)
	}
	return sb.String()
}

// Binom returns C(n, k) exactly (0 when k < 0 or n < k). Intermediate
// products stay exact: after i steps the accumulator is C(n-k+i, i), an
// integer, so each division is exact.
func Binom(n, k int64) int64 {
	if k < 0 || n < k {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := int64(1)
	for i := int64(1); i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

// Choice pairs the two compiled strategies for one pattern with the cost
// model's pick: the enumeration Plan always compiles; Decomp is nil when no
// rule matched. Reason is a stable human-readable justification surfaced by
// -explain.
type Choice struct {
	Plan      *Plan
	Decomp    *DecompPlan
	UseDecomp bool
	Reason    string
}

// Choose compiles both engines for p and picks the cheaper under the
// shared symbolic cost model (both costs are modeled element visits on the
// same reference graph). This is the single-pattern policy; the motifs
// fleet amortizes one sweep across many patterns and so uses a fleet-level
// rule instead (see internal/apps).
func Choose(p *Pattern) (*Choice, error) {
	pl, err := NewPlan(p)
	if err != nil {
		return nil, err
	}
	c := &Choice{Plan: pl}
	dp, derr := Decompose(p)
	if derr != nil {
		c.Reason = fmt.Sprintf("enumeration: %v", derr)
		return c, nil
	}
	c.Decomp = dp
	if dp.EstCost < pl.EstCost {
		c.UseDecomp = true
		c.Reason = fmt.Sprintf("decomposition: est %.3g ops < enumeration est %.3g ops", dp.EstCost, pl.EstCost)
	} else {
		c.Reason = fmt.Sprintf("enumeration: est %.3g ops <= decomposition est %.3g ops", pl.EstCost, dp.EstCost)
	}
	return c, nil
}

// SpanningCounts returns the matrix c with c[i][j] = the number of spanning
// subgraphs of pats[j] (edge subsets over the same vertex set) isomorphic
// to pats[i]. The matrix is the change of basis between non-induced and
// induced counts: for a fleet over every connected k-vertex class,
// nonInduced[i] = Σ_j c[i][j]·induced[j]. It is triangular under any
// edge-count-ascending order — c[i][j] = 0 unless m(i) < m(j) or i == j
// (same-edge-count classes share no spanning subgraph, and c[i][i] = 1).
//
// Cost is Σ_j 2^m(j) canonicalizations; callers gate pattern size with
// MaxDecompVertices (2^10·21 at k=5).
func SpanningCounts(pats []*Pattern) [][]int64 {
	idx := make(map[string]int, len(pats))
	for i, p := range pats {
		idx[p.Canonical().Code] = i
	}
	c := make([][]int64, len(pats))
	for i := range c {
		c[i] = make([]int64, len(pats))
	}
	for j, h := range pats {
		n := h.NumVertices()
		type edge struct{ u, v int }
		var edges []edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if h.HasEdge(u, v) {
					edges = append(edges, edge{u, v})
				}
			}
		}
		for sub := uint32(1); sub < uint32(1)<<uint(len(edges)); sub++ {
			b := NewBuilder(n)
			for v := 0; v < n; v++ {
				b.SetVertexLabel(v, h.VertexLabel(v))
			}
			for bi, e := range edges {
				if sub&(1<<uint(bi)) != 0 {
					b.AddEdge(e.u, e.v, h.EdgeLabel(e.u, e.v))
				}
			}
			// Disconnected subsets canonicalize to codes outside the
			// connected class list and fall through the lookup.
			if i, ok := idx[b.Build().Canonical().Code]; ok {
				c[i][j]++
			}
		}
	}
	return c
}

// CombineInduced fills induced[j] for every decomposed pattern from the
// fleet's mixed counts: pats must be every connected k-vertex class in
// ascending edge-count order (the ConnectedPatterns order); induced[j] must
// already hold the enumerated patterns' induced counts, nonInduced[j] the
// decomposed patterns' sweep counts. Back-substitution runs in descending
// edge order, where every denser class is already known:
//
//	induced[j] = nonInduced[j] - Σ_{i>j} c[j][i]·induced[i]
//
// A negative result means the inputs disagree (wrong counts or a fleet not
// covering every class) and is returned as an error.
func CombineInduced(pats []*Pattern, induced, nonInduced []int64, decomposed []bool) error {
	if len(induced) != len(pats) || len(nonInduced) != len(pats) || len(decomposed) != len(pats) {
		return fmt.Errorf("pattern: CombineInduced length mismatch")
	}
	for j := 1; j < len(pats); j++ {
		if pats[j].NumEdges() < pats[j-1].NumEdges() {
			return fmt.Errorf("pattern: CombineInduced requires ascending edge-count order")
		}
	}
	span := SpanningCounts(pats)
	for j := len(pats) - 1; j >= 0; j-- {
		if !decomposed[j] {
			continue
		}
		v := nonInduced[j]
		for i := j + 1; i < len(pats); i++ {
			v -= span[j][i] * induced[i]
		}
		if v < 0 {
			return fmt.Errorf("pattern: CombineInduced: class %d (%v) solved to %d", j, pats[j], v)
		}
		induced[j] = v
	}
	return nil
}
