package pattern

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Pattern decomposition (DESIGN.md §14, after DwarvesGraph): instead of
// enumerating every embedding of a pattern, count it from local counts the
// sweep reads around each vertex — distinct-neighbor degrees d(x), distinct
// common-neighbor counts c(x,y) of vertex pairs, and triangles through a
// vertex T(x). The per-root kernel internal/subgraph.LocalTerms.At computes
// them and folds the terms below into running sums, run as one fractal step
// by fractal.Graph.EvalDecomps.
//
// Decompose applies one rule. It tries cuts C in a fixed order — one vertex,
// one edge, two non-adjacent vertices — and accepts the first where every
// other pattern vertex is a leaf: all of its neighbors lie in C, so P−C has
// no edge. A leaf is then characterised by which cut vertices it touches,
// and leaves that touch the same ones are interchangeable: the number of
// leaf sets around one ordered binding of C in the graph is a closed form of
// binomials over the binding's locals (DecompTerm.EvalVertex, EvalPair,
// EvalFar). Summed over all bindings it counts every copy of P once per
// ordered binding of C in P itself — |Aut(P)| over the leaves' orderings —
// so the plan divides the total once, by that number (DecompPlan.Div). One
// pattern outside the rule is counted too: the bowtie, a vertex cut whose
// outside is two triangle edges — pairs of triangles through x, less the
// diamonds they overcount, whose term the rule itself provides.
//
// The sums stay at copy scale, so they leave int64 only where the count
// itself nearly does. A value or sum past int64 saturates at math.MaxInt64
// (Binom, mulSat, AddSat) and Eval refuses it rather than return a wrapped
// count.
// Everything else (K4, cycles C_k≥5, the house, …) returns an error and
// callers enumerate it with a Plan — the cost-model choice in Choose and in
// the motifs fleet.
//
// All counts are NON-INDUCED subgraph counts (copies, one per automorphism
// class) over the *distinct* adjacency of the data graph — the simple-graph
// skeleton, matching what the plan engine enumerates on multigraphs.
// CombineInduced converts a mixed fleet's non-induced counts into the
// induced class counts the motifs kernel reports.

// MaxDecompVertices bounds the patterns the *induced conversion* handles
// (SpanningCounts enumerates 2^m edge subsets per pattern, so the motifs
// fleet only mixes engines up to this size). Decompose itself takes patterns
// of any size.
const MaxDecompVertices = 5

// DecompTerm is one term of a decomposition: Coef (±1) times the sum, over
// every ordered binding of the term's cut in the graph, of the number of
// leaf sets around the binding — or, for the bowtie's vertex term, of the
// pairs of triangles through x.
type DecompTerm struct {
	// Cut is the number of cut vertices: 1 (x) or 2 (x, y). Edge says the
	// two are adjacent in the pattern.
	Cut  int
	Edge bool
	// U, V and B count the leaves adjacent to x only, to y only and to both;
	// a vertex cut has U leaves. U ≥ V.
	U, V, B int
	// Tri marks the bowtie's vertex term.
	Tri  bool
	Coef int64
}

// Pair reports whether the term is summed over adjacent vertex pairs
// (EvalPair), as opposed to vertices (EvalVertex) or non-adjacent pairs
// (EvalFar).
func (t DecompTerm) Pair() bool { return t.Cut == 2 && t.Edge }

// Far reports whether the term is summed over pairs of vertices that are
// not adjacent in the pattern (EvalFar): the sweep's distance-2 pass.
func (t DecompTerm) Far() bool { return t.Cut == 2 && !t.Edge }

// NeedsTri reports whether evaluating the term requires the common-neighbor
// counts of adjacent pairs (the sorted-intersection part of the sweep).
func (t DecompTerm) NeedsTri() bool { return t.Tri || t.Pair() }

// EvalVertex returns the term at one vertex with distinct-neighbor degree d
// and tri triangles through it: the ways to choose its U leaves.
func (t DecompTerm) EvalVertex(d, tri int64) int64 {
	if t.Tri {
		return Binom(tri, 2)
	}
	return Binom(d, int64(t.U))
}

// EvalPair returns the term at one distinct adjacent pair with
// distinct-neighbor degrees du, dv and c distinct common neighbors, both
// orientations of the binding together (Coef is applied by Eval, over the
// full sum).
func (t DecompTerm) EvalPair(du, dv, c int64) int64 { return t.EvalFar(du-1, dv-1, c) }

// EvalFar is EvalPair for a pair whose degrees du, dv already leave out the
// other end — the sweep's distance-2 pass passes d−[u~v], since a pattern
// non-edge may land on a graph edge.
func (t DecompTerm) EvalFar(du, dv, c int64) int64 {
	return AddSat(t.place(du-c, dv-c, c), t.place(dv-c, du-c, c))
}

// place counts the leaf sets at one ordered binding (x, y) whose ends have
// a and b exclusive neighbors and c common ones: i of x's U leaves and j of
// y's V may sit on common neighbors too, disjoint from the B leaves there.
func (t DecompTerm) place(a, b, c int64) int64 {
	u, v, free := int64(t.U), int64(t.V), c-int64(t.B) // free: common neighbors left for U and V
	var s int64
	for i := int64(0); i <= min(u, free); i++ {
		x := mulSat(Binom(a, u-i), Binom(c, i))
		for j := int64(0); j <= min(v, free-i); j++ {
			y := mulSat(Binom(b, v-j), mulSat(Binom(c-i, j), Binom(c-i-j, int64(t.B))))
			s = AddSat(s, mulSat(x, y))
		}
	}
	return s
}

// mulSat returns a·b for non-negative a and b, or math.MaxInt64 when the
// product leaves int64.
func mulSat(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(lo)
}

// AddSat returns a+b, or the int64 bound it passes: the addition of the
// decomposition's counts, whose sums saturate at math.MaxInt64 instead of
// wrapping (the sweep's kernel and agg.Int64Sums add with it).
func AddSat(a, b int64) int64 {
	s := a + b
	switch {
	case a > 0 && b > 0 && s < 0:
		return math.MaxInt64
	case a < 0 && b < 0 && s >= 0:
		return math.MinInt64
	}
	return s
}

// DecompPlan is a compiled decomposition: terms over local counts whose
// value, divided by Div, is the non-induced subgraph count of P in any
// uniform-label graph. Immutable and reusable across graphs and runs, like
// Plan.
type DecompPlan struct {
	P *Pattern
	// Rule names the cut that matched (stable, shown by Explain).
	Rule  string
	Terms []DecompTerm
	// Div, the one divisor of the terms' total, is the number of ordered
	// bindings of the cut in P itself: |Aut(P)| / (U!·V!·B!), the times the
	// sums count each copy (1 for the bowtie, counted at its center).
	Div int64
	// NeedTri reports whether any term requires the common-neighbor
	// (sorted-intersection) half of the sweep.
	NeedTri bool
	// EstCost is the modeled cost of the local-count sweep, in the same
	// symbolic work units as Plan.EstCost (estimated element visits on the
	// estVertices/estDegree reference graph), so the two are comparable.
	EstCost float64
}

// Decomposition sweep cost symbols, comparable with Plan.EstCost: a degree
// pass touches each incidence once (estVertices·estDegree); the
// common-neighbor pass merges both adjacency lists of every adjacent pair
// (estVertices·estDegree/2 pairs × 2·estDegree merge steps); the distance-2
// pass reads the list of every neighbor of every vertex.
const (
	degPassCost = float64(estVertices) * float64(estDegree)
	triPassCost = float64(estVertices) * float64(estDegree) * float64(estDegree)
	farPassCost = triPassCost
)

// SweepCost is the modeled cost of one sweep evaluating every plan's terms
// (nil plans skipped): the union of the passes they need, each paid once.
func SweepCost(plans []*DecompPlan) float64 {
	tri, far := sweepPasses(plans)
	cost := degPassCost
	if tri {
		cost += triPassCost
	}
	if far {
		cost += farPassCost
	}
	return cost
}

// sweepPasses reports which passes beyond the degree pass the plans need.
func sweepPasses(plans []*DecompPlan) (tri, far bool) {
	for _, dp := range plans {
		if dp == nil {
			continue
		}
		for _, t := range dp.Terms {
			tri = tri || t.NeedsTri()
			far = far || t.Far()
		}
	}
	return tri, far
}

// Decompose compiles p's decomposition. It returns an error when p is
// empty, disconnected, non-uniformly labeled (the local-count kernels are
// label-blind), or has no cut that leaves only leaves — callers treat the
// error as "fall back to the enumeration plan".
func Decompose(p *Pattern) (*DecompPlan, error) {
	switch {
	case p.NumVertices() == 0:
		return nil, fmt.Errorf("pattern: cannot decompose empty pattern")
	case !p.Connected():
		return nil, fmt.Errorf("pattern: cannot decompose disconnected pattern %v", p)
	case !uniformPatternLabels(p):
		return nil, fmt.Errorf("pattern: decomposition is label-blind; pattern %v mixes labels", p)
	}
	dp := &DecompPlan{P: p}
	if t, div, ok := firstCut(p); ok {
		dp.Rule, dp.Terms, dp.Div = t.cut(), []DecompTerm{t}, div
	} else if twoTriangleEdges(p) {
		// Pairs of triangles through the center x: those sharing a second
		// vertex y form a diamond with chord xy, one per ordered binding of
		// the chord.
		diamond, _, _ := firstCut(ChordalSquare())
		diamond.Coef = -1
		dp.Rule, dp.Terms, dp.Div = "bowtie", []DecompTerm{{Cut: 1, Tri: true, Coef: 1}, diamond}, 1
	} else {
		return nil, fmt.Errorf("pattern: no decomposition of %v: no cut leaves only leaves (falls back to enumeration)", p)
	}
	dp.NeedTri, _ = sweepPasses([]*DecompPlan{dp})
	dp.EstCost = SweepCost([]*DecompPlan{dp})
	return dp, nil
}

// firstCut tries the cuts in order — every vertex, every edge, every
// non-adjacent pair — and returns the term of the first that leaves only
// leaves, with the number of ordered bindings of the same cut in p: the
// vertices or ordered pairs whose leaves it puts the same way.
func firstCut(p *Pattern) (t DecompTerm, div int64, ok bool) {
	n := p.NumVertices()
	for _, kind := range []struct{ pair, edge bool }{{false, false}, {true, true}, {true, false}} {
		for x := 0; x < n; x++ {
			for y := x; y < n; y++ {
				if kind.pair != (y > x) || kind.pair && p.HasEdge(x, y) != kind.edge {
					continue
				}
				o, good := cutAt(p, x, y)
				if !good {
					continue
				}
				if !ok {
					t, ok = o, true
					if t.U < t.V {
						t.U, t.V = t.V, t.U
					}
				}
				div += int64(b2i(o == t))
				o.U, o.V = o.V, o.U // the binding (y, x)
				div += int64(b2i(kind.pair && o == t))
			}
		}
		if ok {
			return t, div, true
		}
	}
	return t, 0, false
}

// cut names the term's cut, the Rule of a plan that has no other term.
func (t DecompTerm) cut() string {
	switch {
	case t.Cut == 1:
		return "vertex cut"
	case t.Edge:
		return "edge cut"
	}
	return "vertex-pair cut"
}

// cutAt returns the term of cut {x, y} (x == y: the vertex cut {x}), U
// counting x's own leaves and V y's, when every other vertex of p has all of
// its neighbors in the cut.
func cutAt(p *Pattern, x, y int) (DecompTerm, bool) {
	t := DecompTerm{Cut: 1, Coef: 1}
	if x != y {
		t.Cut, t.Edge = 2, p.HasEdge(x, y)
	}
	for w := 0; w < p.NumVertices(); w++ {
		if w == x || w == y {
			continue
		}
		ax, ay := p.HasEdge(w, x), x != y && p.HasEdge(w, y)
		switch {
		case p.Degree(w) != b2i(ax)+b2i(ay):
			return t, false
		case ax && ay:
			t.B++
		case ax:
			t.U++
		default:
			t.V++
		}
	}
	return t, true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// twoTriangleEdges reports whether p is a vertex cut whose outside is two
// triangle edges (the bowtie): five vertices, one adjacent to the other
// four, which pair off.
func twoTriangleEdges(p *Pattern) bool {
	if p.NumVertices() != 5 || p.NumEdges() != 6 {
		return false
	}
	hubs := 0
	for w := 0; w < 5; w++ {
		switch p.Degree(w) {
		case 4:
			hubs++
		case 2:
		default:
			return false
		}
	}
	return hubs == 1
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

// Eval combines the raw term sums (aligned with Terms) into the pattern's
// non-induced subgraph count: Σ Coef·sum, divided by Div. A saturated sum
// is an error — the count does not fit in int64 — and so is an inexact
// division: the sweep and the algebra disagree, which is a bug worth failing
// loudly over.
func (dp *DecompPlan) Eval(termSums []int64) (int64, error) {
	if len(termSums) != len(dp.Terms) {
		return 0, fmt.Errorf("pattern: decomp eval got %d sums for %d terms", len(termSums), len(dp.Terms))
	}
	var total int64
	for i, t := range dp.Terms {
		if termSums[i] == math.MaxInt64 {
			return 0, fmt.Errorf("pattern: decomp %s of %v: term %d's sum overflows int64", dp.Rule, dp.P, i)
		}
		total = AddSat(total, t.Coef*termSums[i])
	}
	switch {
	case total < 0:
		return 0, fmt.Errorf("pattern: decomp %s of %v evaluated to negative total %d", dp.Rule, dp.P, total)
	case total == math.MaxInt64:
		return 0, fmt.Errorf("pattern: decomp %s of %v: total overflows int64", dp.Rule, dp.P)
	case total%dp.Div != 0:
		return 0, fmt.Errorf("pattern: decomp %s of %v: total %d not divisible by %d", dp.Rule, dp.P, total, dp.Div)
	}
	return total / dp.Div, nil
}

// Explain renders the decomposition for humans in the same spirit as
// Plan.Explain: the cut, the divisor, the sweep's passes and cost estimate
// with its units, and each term. Stable output, used by -explain tooling
// and golden tests.
func (dp *DecompPlan) Explain() string {
	var sb strings.Builder
	passes := "degree"
	tri, far := sweepPasses([]*DecompPlan{dp})
	if tri {
		passes += " + common-neighbor"
	}
	if far {
		passes += " + distance-2"
	}
	fmt.Fprintf(&sb, "decomp: rule=%s, %d terms / %d bindings per copy, %s sweep, est cost %.3g ops (modeled element visits)\n",
		dp.Rule, len(dp.Terms), dp.Div, passes, dp.EstCost)
	fmt.Fprintf(&sb, "pattern: %v\n", dp.P)
	for _, t := range dp.Terms {
		fmt.Fprintf(&sb, "  %s\n", t)
	}
	sb.WriteString("locals: d(x)=distinct-neighbor degree, c(x,y)=distinct common neighbors, T(x)=triangles through x; sums over ordered bindings\n")
	sb.WriteString("place(U,V,B) = Σ_i,j C(a,U-i)·C(b,V-j)·C(c,i)·C(c-i,j)·C(c-i-j,B), a=d(x)-[x~y]-c, b=d(y)-[x~y]-c\n")
	return sb.String()
}

// String renders one term, e.g. "+ 1 · Σ_x~y place(0,0,1)".
func (t DecompTerm) String() string {
	sign, coef := "+", t.Coef
	if coef < 0 {
		sign, coef = "-", -coef
	}
	var sum string
	switch {
	case t.Tri:
		sum = "Σ_x C(T(x),2)"
	case t.Cut == 1:
		sum = fmt.Sprintf("Σ_x C(d(x),%d)", t.U)
	case t.Edge:
		sum = fmt.Sprintf("Σ_x~y place(%d,%d,%d)", t.U, t.V, t.B)
	default:
		sum = fmt.Sprintf("Σ_x≁y place(%d,%d,%d)", t.U, t.V, t.B)
	}
	return fmt.Sprintf("%s %d · %s", sign, coef, sum)
}

// Binom returns C(n, k) exactly (0 when k < 0 or n < k), or math.MaxInt64
// when it leaves int64. After i steps the accumulator is C(n-k+i, i), an
// integer no larger than the result, so each division is exact and the first
// step past int64 decides.
func Binom(n, k int64) int64 {
	if k < 0 || n < k {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	if k == 0 {
		return 1
	}
	r := uint64(n - k + 1)
	for i := uint64(2); i <= uint64(k); i++ {
		hi, lo := bits.Mul64(r, uint64(n-k)+i)
		if hi >= i { // the quotient needs more than 64 bits
			return math.MaxInt64
		}
		if r, _ = bits.Div64(hi, lo, i); r > math.MaxInt64 {
			return math.MaxInt64
		}
	}
	return int64(r)
}

// Choice pairs the two compiled strategies for one pattern with the cost
// model's pick: the enumeration Plan always compiles; Decomp is nil when no
// cut matched. Reason is a stable human-readable justification surfaced by
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
