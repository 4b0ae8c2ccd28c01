package pattern

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fractal/internal/graph"
)

// paw returns the triangle with one pendant edge (tailed triangle, s=1).
func paw() *Pattern {
	b := NewBuilder(4)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	return b.Build()
}

// cricket returns the triangle with two pendant edges at one vertex.
func cricket() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(0, 4, NoLabel)
	return b.Build()
}

// bull returns the triangle with one pendant at each of two vertices.
func bull() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(1, 4, NoLabel)
	return b.Build()
}

// fork21 returns the double-star with 2 leaves at one center, 1 at the other.
func fork21() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(3, 4, NoLabel)
	return b.Build()
}

// book3 returns B(3): a base edge with three pages.
func book3() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	for w := 2; w < 5; w++ {
		b.AddEdge(0, w, NoLabel)
		b.AddEdge(1, w, NoLabel)
	}
	return b.Build()
}

// tadpole returns the triangle with a length-2 path tail (refused: the tail
// is not a star of pendants at the apex).
func tadpole() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(3, 4, NoLabel)
	return b.Build()
}

// c4Pendant returns the 4-cycle with a pendant edge.
func c4Pendant() *Pattern {
	b := NewBuilder(5)
	for v := 0; v < 4; v++ {
		b.AddEdge(v, (v+1)%4, NoLabel)
	}
	b.AddEdge(0, 4, NoLabel)
	return b.Build()
}

// k23 returns the complete bipartite K2,3.
func k23() *Pattern {
	b := NewBuilder(5)
	for w := 2; w < 5; w++ {
		b.AddEdge(0, w, NoLabel)
		b.AddEdge(1, w, NoLabel)
	}
	return b.Build()
}

// kite returns the diamond with a pendant on a chord endpoint.
func kite() *Pattern {
	b := NewBuilder(5)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {0, 4}} {
		b.AddEdge(e[0], e[1], NoLabel)
	}
	return b.Build()
}

func TestDecomposeRules(t *testing.T) {
	cases := []struct {
		name string
		p    *Pattern
		rule string // "" means Decompose must refuse
		term string // the first term
	}{
		{"K1", Clique(1), "vertex cut", "+ 1 · Σ_x C(d(x),0)"},
		{"K2", Clique(2), "vertex cut", "+ 1 · Σ_x C(d(x),1)"},
		{"K3", Clique(3), "edge cut", "+ 1 · Σ_x~y place(0,0,1)"},
		{"P3", Path(3), "vertex cut", "+ 1 · Σ_x C(d(x),2)"},
		{"P4", Path(4), "edge cut", "+ 1 · Σ_x~y place(1,1,0)"},
		{"star4", Star(4), "vertex cut", "+ 1 · Σ_x C(d(x),3)"},
		{"star5", Star(5), "vertex cut", "+ 1 · Σ_x C(d(x),4)"},
		{"paw", paw(), "edge cut", "+ 1 · Σ_x~y place(1,0,1)"},
		{"diamond", ChordalSquare(), "edge cut", "+ 1 · Σ_x~y place(0,0,2)"},
		{"C4", Cycle(4), "vertex-pair cut", "+ 1 · Σ_x≁y place(0,0,2)"},
		{"fork21", fork21(), "edge cut", "+ 1 · Σ_x~y place(2,1,0)"},
		{"cricket", cricket(), "edge cut", "+ 1 · Σ_x~y place(2,0,1)"},
		{"book3", book3(), "edge cut", "+ 1 · Σ_x~y place(0,0,3)"},
		{"bull", bull(), "edge cut", "+ 1 · Σ_x~y place(1,1,1)"},
		{"kite", kite(), "edge cut", "+ 1 · Σ_x~y place(1,0,2)"},
		{"P5", Path(5), "vertex-pair cut", "+ 1 · Σ_x≁y place(1,1,1)"},
		{"C4+pendant", c4Pendant(), "vertex-pair cut", "+ 1 · Σ_x≁y place(1,0,2)"},
		{"K2,3", k23(), "vertex-pair cut", "+ 1 · Σ_x≁y place(0,0,3)"},
		{"star10", Star(10), "vertex cut", "+ 1 · Σ_x C(d(x),9)"},
		{"bowtie", Bowtie(), "bowtie", "+ 1 · Σ_x C(T(x),2)"},
		// Refusals: no cut leaves only leaves.
		{"C5", Cycle(5), "", ""},
		{"K4", Clique(4), "", ""},
		{"K5", Clique(5), "", ""},
		{"house", House(), "", ""},
		{"tadpole", tadpole(), "", ""},
		{"chordal-house", ChordalHouse(), "", ""},
	}
	for _, c := range cases {
		dp, err := Decompose(c.p)
		if c.rule == "" {
			if err == nil {
				t.Errorf("%s: expected refusal, got rule %q", c.name, dp.Rule)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if dp.Rule != c.rule || dp.Terms[0].String() != c.term {
			t.Errorf("%s: rule %q, first term %q; want %q, %q", c.name, dp.Rule, dp.Terms[0], c.rule, c.term)
		}
		if c.p.NumVertices() <= MaxGenVertices && c.rule != "bowtie" {
			if got, want := dp.Div*leafOrderings(dp.Terms[0]), int64(NumAutomorphisms(c.p)); got != want {
				t.Errorf("%s: Div=%d, times the leaves' orderings %d, want |Aut| = %d", c.name, dp.Div, got, want)
			}
		}
		if dp.EstCost <= 0 {
			t.Errorf("%s: non-positive est cost %g", c.name, dp.EstCost)
		}
	}
}

func TestDecomposeRefusesLabeledAndBrokenPatterns(t *testing.T) {
	// Mixed vertex labels: the sweep is label-blind.
	b := NewBuilder(3)
	b.SetVertexLabel(0, 7)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	if _, err := Decompose(b.Build()); err == nil {
		t.Error("mixed vertex labels: expected error")
	}
	// Mixed edge labels.
	b = NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(0, 2, 1)
	if _, err := Decompose(b.Build()); err == nil {
		t.Error("mixed edge labels: expected error")
	}
	// Uniformly labeled patterns ARE decomposable (label matching happens
	// at evaluation time against the graph's uniform labels).
	b = NewBuilder(3)
	for v := 0; v < 3; v++ {
		b.SetVertexLabel(v, 4)
	}
	b.AddEdge(0, 1, 9)
	b.AddEdge(1, 2, 9)
	b.AddEdge(0, 2, 9)
	if _, err := Decompose(b.Build()); err != nil {
		t.Errorf("uniformly labeled triangle: %v", err)
	}
	// Disconnected.
	b = NewBuilder(4)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(2, 3, NoLabel)
	if _, err := Decompose(b.Build()); err == nil {
		t.Error("disconnected: expected error")
	}
	// Empty.
	if _, err := Decompose(NewBuilder(0).Build()); err == nil {
		t.Error("empty: expected error")
	}
}

func TestDecomposeDeterministic(t *testing.T) {
	for _, p := range []*Pattern{Triangle(), Path(4), ChordalSquare(), Bowtie(), fork21()} {
		a, err := Decompose(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Decompose(p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Explain() != b.Explain() {
			t.Errorf("non-deterministic decomposition for %v", p)
		}
	}
}

// leafOrderings is U!·V!·B!, the orderings of a term's interchangeable
// leaves.
func leafOrderings(t DecompTerm) int64 {
	f := int64(1)
	for _, n := range []int{t.U, t.V, t.B} {
		for i := 2; i <= n; i++ {
			f *= int64(i)
		}
	}
	return f
}

func TestBinom(t *testing.T) {
	cases := []struct{ n, k, want int64 }{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 1, 5}, {5, 2, 10}, {6, 3, 20},
		{10, 4, 210}, {52, 5, 2598960}, {3, 5, 0}, {4, -1, 0}, {-1, 0, 0},
		{1400, 6, 10346094887690100}, {62, 31, 465428353255261088}, {66, 33, 7219428434016265740},
		// Past int64 the result saturates.
		{67, 33, math.MaxInt64}, {2000, 7, math.MaxInt64}, {1 << 40, 2, math.MaxInt64},
	}
	for _, c := range cases {
		if got := Binom(c.n, c.k); got != c.want {
			t.Errorf("Binom(%d,%d)=%d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestSpanningCounts(t *testing.T) {
	pats, err := ConnectedPatterns(3)
	if err != nil {
		t.Fatal(err)
	}
	span := SpanningCounts(pats)
	p3, k3 := -1, -1
	for i, p := range pats {
		switch p.NumEdges() {
		case 2:
			p3 = i
		case 3:
			k3 = i
		}
	}
	if p3 < 0 || k3 < 0 {
		t.Fatalf("k=3 classes missing: %v", pats)
	}
	// A triangle contains 3 spanning paths; diagonal is the identity;
	// nothing denser spans something sparser.
	if span[p3][k3] != 3 {
		t.Errorf("span[P3][K3]=%d, want 3", span[p3][k3])
	}
	if span[p3][p3] != 1 || span[k3][k3] != 1 {
		t.Errorf("diagonal not identity: %d, %d", span[p3][p3], span[k3][k3])
	}
	if span[k3][p3] != 0 {
		t.Errorf("span[K3][P3]=%d, want 0", span[k3][p3])
	}

	pats4, err := ConnectedPatterns(4)
	if err != nil {
		t.Fatal(err)
	}
	span4 := SpanningCounts(pats4)
	find := func(want *Pattern) int {
		code := want.Canonical().Code
		for i, p := range pats4 {
			if p.Canonical().Code == code {
				return i
			}
		}
		t.Fatalf("class %v not generated", want)
		return -1
	}
	p4, c4, k4, diamond := find(Path(4)), find(Cycle(4)), find(Clique(4)), find(ChordalSquare())
	// C4 spans 4 paths (drop any edge); K4 spans 3 cycles and 12 paths.
	if span4[p4][c4] != 4 {
		t.Errorf("span[P4][C4]=%d, want 4", span4[p4][c4])
	}
	if span4[c4][k4] != 3 {
		t.Errorf("span[C4][K4]=%d, want 3", span4[c4][k4])
	}
	if span4[p4][k4] != 12 {
		t.Errorf("span[P4][K4]=%d, want 12", span4[p4][k4])
	}
	if span4[c4][diamond] != 1 {
		t.Errorf("span[C4][diamond]=%d, want 1", span4[c4][diamond])
	}
}

// spanningReference is SpanningCounts by its definition: every edge subset
// of every pattern, built over the pattern's vertices and labelled, looked
// up by canonical code among the patterns (Σ 2^m labellings).
func spanningReference(pats []*Pattern) [][]int64 {
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
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if h.HasEdge(u, v) {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		for sub := uint32(0); sub < uint32(1)<<uint(len(edges)); sub++ {
			b := NewBuilder(n)
			for v := 0; v < n; v++ {
				b.SetVertexLabel(v, h.VertexLabel(v))
			}
			for bi, e := range edges {
				if sub&(1<<uint(bi)) != 0 {
					b.AddEdge(e[0], e[1], h.EdgeLabel(e[0], e[1]))
				}
			}
			// A disconnected subset has a code outside the class list.
			if i, ok := idx[b.Build().Canonical().Code]; ok {
				c[i][j]++
			}
		}
	}
	return c
}

// labelledFleet returns every distinct class of the connected k-vertex
// patterns with two vertex labels and two edge labels, in ascending edge
// count.
func labelledFleet(t *testing.T, k int) []*Pattern {
	t.Helper()
	pats, err := ConnectedPatterns(k)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []*Pattern
	for _, p := range pats {
		m := p.NumEdges()
		for vl := 0; vl < 1<<k; vl++ {
			for el := 0; el < 1<<m; el++ {
				b := NewBuilder(k)
				for v := 0; v < k; v++ {
					b.SetVertexLabel(v, graph.Label(vl>>v&1))
				}
				e := 0
				for u := 0; u < k; u++ {
					for v := u + 1; v < k; v++ {
						if p.HasEdge(u, v) {
							b.AddEdge(u, v, graph.Label(el>>e&1))
							e++
						}
					}
				}
				q := b.Build()
				if code := q.Canonical().Code; !seen[code] {
					seen[code] = true
					out = append(out, q)
				}
			}
		}
	}
	return out
}

// TestSpanningCountsMatchReference holds the maps-over-|Aut| matrix to the
// edge-subset definition on every connected class at k ≤ 6 (k = 6 is 12 544
// entries over ~190 000 labellings, skipped under -short) and on labelled
// fleets, whose classes the label checks of the search tell apart.
func TestSpanningCountsMatchReference(t *testing.T) {
	fleets := map[string][]*Pattern{}
	for k := 1; k <= 6; k++ {
		if k == 6 && testing.Short() {
			continue
		}
		pats, err := ConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		fleets[fmt.Sprintf("k=%d", k)] = pats
	}
	for k := 2; k <= 4; k++ {
		fleets[fmt.Sprintf("labelled k=%d", k)] = labelledFleet(t, k)
	}
	for name, pats := range fleets {
		got, want := SpanningCounts(pats), spanningReference(pats)
		for i := range pats {
			for j := range pats {
				if got[i][j] != want[i][j] {
					t.Errorf("%s: c[%d][%d] = %d, want %d (%v in %v)", name, i, j, got[i][j], want[i][j], pats[i], pats[j])
				}
			}
		}
	}
}

// TestSpanningCountsAllocs holds the k = 5 conversion to the matrix's own
// rows: the search builds no pattern, group or code.
func TestSpanningCountsAllocs(t *testing.T) {
	pats, err := ConnectedPatterns(5)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { SpanningCounts(pats) }); n > float64(len(pats)+1) {
		t.Errorf("SpanningCounts(k=5) allocates %v times, want at most %d (its rows)", n, len(pats)+1)
	}
}

func BenchmarkSpanningCounts(b *testing.B) {
	for _, k := range []int{5, 6} {
		pats, err := ConnectedPatterns(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SpanningCounts(pats)
			}
		})
	}
}

func TestCombineInduced(t *testing.T) {
	pats, err := ConnectedPatterns(3)
	if err != nil {
		t.Fatal(err)
	}
	p3, k3 := -1, -1
	for i, p := range pats {
		switch p.NumEdges() {
		case 2:
			p3 = i
		case 3:
			k3 = i
		}
	}
	// With 5 induced triangles and 7 induced paths, the non-induced path
	// count is 7 + 3·5 = 22; the solve must recover 7.
	induced := make([]int64, len(pats))
	nonInduced := make([]int64, len(pats))
	decomposed := make([]bool, len(pats))
	induced[k3] = 5
	nonInduced[p3] = 22
	decomposed[p3] = true
	if err := CombineInduced(pats, induced, nonInduced, decomposed); err != nil {
		t.Fatal(err)
	}
	if induced[p3] != 7 {
		t.Errorf("induced[P3]=%d, want 7", induced[p3])
	}
	// Impossible inputs (more triangles than the non-induced path count
	// supports) must error, not go negative.
	induced2 := make([]int64, len(pats))
	nonInduced2 := make([]int64, len(pats))
	induced2[k3] = 10
	nonInduced2[p3] = 22
	if err := CombineInduced(pats, induced2, nonInduced2, decomposed); err == nil {
		t.Error("negative solve: expected error")
	}
	// Length mismatches error.
	if err := CombineInduced(pats, induced[:1], nonInduced, decomposed); err == nil {
		t.Error("length mismatch: expected error")
	}
}

func TestDecompEvalErrors(t *testing.T) {
	dp, err := Decompose(Triangle())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Eval([]int64{1, 2}); err == nil {
		t.Error("arity mismatch: expected error")
	}
	if _, err := dp.Eval([]int64{9}); err == nil {
		t.Error("inexact division by 6: expected error")
	}
	if n, err := dp.Eval([]int64{18}); err != nil || n != 3 {
		t.Errorf("Eval([18])=%d,%v, want 3,nil", n, err)
	}
	// A negative total (impossible counts) errors.
	bw, err := Decompose(Bowtie())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Eval([]int64{0, 2}); err == nil {
		t.Error("negative total: expected error")
	}
}

func TestChoose(t *testing.T) {
	// Stars need only the degree pass: decomposition wins by orders of
	// magnitude under the model.
	ch, err := Choose(Star(4))
	if err != nil {
		t.Fatal(err)
	}
	if !ch.UseDecomp || ch.Decomp == nil {
		t.Errorf("star: want decomposition, got %q", ch.Reason)
	}
	if !strings.HasPrefix(ch.Reason, "decomposition:") {
		t.Errorf("star reason: %q", ch.Reason)
	}
	// K4 has no cut: enumeration, with the refusal in the reason.
	ch, err = Choose(Clique(4))
	if err != nil {
		t.Fatal(err)
	}
	if ch.UseDecomp || ch.Decomp != nil {
		t.Error("K4: decomposition should be unavailable")
	}
	if !strings.HasPrefix(ch.Reason, "enumeration:") {
		t.Errorf("K4 reason: %q", ch.Reason)
	}
	if ch.Plan == nil {
		t.Error("K4: enumeration plan missing")
	}
	// C4 is a vertex-pair cut now: its sweep is a degree and a distance-2
	// pass, cheaper under the model than enumerating squares.
	ch, err = Choose(Cycle(4))
	if err != nil {
		t.Fatal(err)
	}
	if !ch.UseDecomp || ch.Decomp == nil || ch.Decomp.Rule != "vertex-pair cut" {
		t.Errorf("C4: want the vertex-pair cut, got %q", ch.Reason)
	}
}

// TestPlanExplainGolden pins the self-describing Plan.Explain format: units
// on the cost estimate and per-level cumulative costs.
func TestPlanExplainGolden(t *testing.T) {
	pl, err := NewPlan(Triangle())
	if err != nil {
		t.Fatal(err)
	}
	want := `plan: 3 levels, edge-matched, 3 restriction pairs, est cost 7.37e+04 partial embeddings (symbolic units)
pattern: Pattern(n=3 labels=[-1 -1 -1] edges=[0-1 0-2 1-2])
  L0: bind u0  domain=V(G)  est 4.1e+03 candidates, cum cost 4.1e+03
  L1: bind u1  adj=[L0] v>L0  est 16 candidates, cum cost 6.96e+04
  L2: bind u2  adj=[L0 L1] v>L0 v>L1  est 0.0625 candidates, cum cost 7.37e+04
`
	if got := pl.Explain(); got != want {
		t.Errorf("Plan.Explain drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestDecompExplainGolden pins DecompPlan.Explain for an edge cut, a
// vertex-pair cut and the bowtie's shrinkage terms.
func TestDecompExplainGolden(t *testing.T) {
	const locals = `locals: d(x)=distinct-neighbor degree, c(x,y)=distinct common neighbors, T(x)=triangles through x; sums over ordered bindings
place(U,V,B) = Σ_i,j C(a,U-i)·C(b,V-j)·C(c,i)·C(c-i,j)·C(c-i-j,B), a=d(x)-[x~y]-c, b=d(y)-[x~y]-c
`
	for _, c := range []struct {
		p    *Pattern
		want string
	}{
		{Triangle(), `decomp: rule=edge cut, 1 terms / 6 bindings per copy, degree + common-neighbor sweep, est cost 1.11e+06 ops (modeled element visits)
pattern: Pattern(n=3 labels=[-1 -1 -1] edges=[0-1 0-2 1-2])
  + 1 · Σ_x~y place(0,0,1)
`},
		{Cycle(4), `decomp: rule=vertex-pair cut, 1 terms / 4 bindings per copy, degree + distance-2 sweep, est cost 1.11e+06 ops (modeled element visits)
pattern: Pattern(n=4 labels=[-1 -1 -1 -1] edges=[0-1 0-3 1-2 2-3])
  + 1 · Σ_x≁y place(0,0,2)
`},
		{Bowtie(), `decomp: rule=bowtie, 2 terms / 1 bindings per copy, degree + common-neighbor sweep, est cost 1.11e+06 ops (modeled element visits)
pattern: Pattern(n=5 labels=[-1 -1 -1 -1 -1] edges=[0-1 0-2 0-3 0-4 1-2 3-4])
  + 1 · Σ_x C(T(x),2)
  - 1 · Σ_x~y place(0,0,2)
`},
	} {
		dp, err := Decompose(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := dp.Explain(); got != c.want+locals {
			t.Errorf("DecompPlan.Explain drifted:\n got: %q\nwant: %q", got, c.want+locals)
		}
	}
}

// TestDecomposeCoversDocumentedClasses pins the coverage the docs promise:
// all k=3 classes, 5 of 6 at k=4, 10 of 21 at k=5, 14 of 112 at k=6.
func TestDecomposeCoversDocumentedClasses(t *testing.T) {
	want := map[int][2]int{3: {2, 2}, 4: {5, 6}, 5: {10, 21}, 6: {14, 112}}
	for k, w := range want {
		pats, err := ConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, p := range pats {
			if _, err := Decompose(p); err == nil {
				got++
			}
		}
		if got != w[0] || len(pats) != w[1] {
			t.Errorf("k=%d: %d of %d classes decomposable, want %d of %d",
				k, got, len(pats), w[0], w[1])
		}
	}
}
