package pattern

import (
	"math/rand"
	"slices"
	"testing"

	"fractal/internal/graph"
)

// subCodes returns the canonical codes of p's sub-patterns, sorted: the
// multiset the generator promises whatever numbering p comes in.
func subCodes(p *Pattern) []string {
	var out []string
	for _, q := range p.SubPatterns() {
		out = append(out, q.Canonical().Code)
	}
	slices.Sort(out)
	return out
}

func codesOf(ps ...*Pattern) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Canonical().Code)
	}
	slices.Sort(out)
	return out
}

// labeled returns p with vertex v labeled labels[v].
func labeled(p *Pattern, labels ...int) *Pattern {
	b := NewBuilder(p.n)
	for v, l := range labels {
		b.SetVertexLabel(v, graph.Label(l))
	}
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.HasEdge(u, v) {
				b.AddEdge(u, v, p.EdgeLabel(u, v))
			}
		}
	}
	return b.Build()
}

// TestSubPatternsGoldens pins the generator on the shapes level-wise mining
// meets: one result per deletable edge, an endpoint left isolated dropped
// with its edge, a deletion that disconnects the rest skipped.
func TestSubPatternsGoldens(t *testing.T) {
	tailed := NewBuilder(4).AddEdge(0, 1, NoLabel).AddEdge(1, 2, NoLabel).AddEdge(0, 2, NoLabel).AddEdge(2, 3, NoLabel).Build()
	pathABC := labeled(Path(3), 1, 2, 3)
	edgeLabeled := NewBuilder(3).AddEdge(0, 1, 7).AddEdge(1, 2, 8).Build()
	for _, tc := range []struct {
		name string
		p    *Pattern
		want []*Pattern
	}{
		{"edge", Path(2), nil},
		// The middle edge of a 4-path is a bridge between two edges: skipped.
		{"path4", Path(4), []*Pattern{Path(3), Path(3)}},
		{"path3", Path(3), []*Pattern{Path(2), Path(2)}},
		{"star4", Star(4), []*Pattern{Star(3), Star(3), Star(3)}},
		{"triangle", Triangle(), []*Pattern{Path(3), Path(3), Path(3)}},
		// Deleting the tail drops its leaf: the triangle. Deleting the triangle
		// edge across from the tail leaves a star, either other one a path.
		{"triangle with a tail", tailed, []*Pattern{Triangle(), Star(4), Path(4), Path(4)}},
		{"4-cycle", Cycle(4), []*Pattern{Path(4), Path(4), Path(4), Path(4)}},
		{"labeled path", pathABC, []*Pattern{labeled(Path(2), 1, 2), labeled(Path(2), 2, 3)}},
		{"labeled triangle", labeled(Triangle(), 1, 1, 2),
			[]*Pattern{labeled(Path(3), 1, 1, 2), labeled(Path(3), 1, 1, 2), labeled(Path(3), 1, 2, 1)}},
		{"edge-labeled path", edgeLabeled,
			[]*Pattern{NewBuilder(2).AddEdge(0, 1, 7).Build(), NewBuilder(2).AddEdge(0, 1, 8).Build()}},
	} {
		if got, want := subCodes(tc.p), codesOf(tc.want...); !slices.Equal(got, want) {
			t.Errorf("%s: %d sub-patterns %v, want %v", tc.name, len(got), tc.p.SubPatterns(), tc.want)
		}
	}
	// Two triangles joined by a bridge: only the six triangle edges go.
	bridged := NewBuilder(6).AddEdge(0, 1, NoLabel).AddEdge(1, 2, NoLabel).AddEdge(0, 2, NoLabel).
		AddEdge(2, 3, NoLabel).AddEdge(3, 4, NoLabel).AddEdge(4, 5, NoLabel).AddEdge(3, 5, NoLabel).Build()
	subs := bridged.SubPatterns()
	if len(subs) != 6 {
		t.Errorf("bridge: %d sub-patterns, want the 6 triangle-edge deletions", len(subs))
	}
	for _, q := range subs {
		if q.n != 6 || q.m != 6 || !q.Connected() {
			t.Errorf("bridge: sub-pattern %v, want 6 vertices joined by 6 edges", q)
		}
	}
}

// checkSubPatterns holds SubPatterns and EverySubClass to their contract on
// p: connected results with one edge fewer, the same multiset of classes
// from a renumbered p, and EverySubClass asking exactly those classes, one
// search each, stopping at the first refusal.
func checkSubPatterns(t *testing.T, p *Pattern, rng *rand.Rand) {
	t.Helper()
	subs := p.SubPatterns()
	for _, q := range subs {
		if q.m != p.m-1 || q.m == 0 || !q.Connected() || q.n > p.n {
			t.Fatalf("%v: sub-pattern %v", p, q)
		}
	}
	if !p.Connected() {
		return
	}
	want := subCodes(p)
	if got := subCodes(p.Relabel(rng.Perm(p.n))); !slices.Equal(got, want) {
		t.Fatalf("%v: sub-pattern classes depend on the numbering", p)
	}
	var l Labeller
	var asked []string
	if !l.EverySubClass(p, func(cl *Class) bool { asked = append(asked, cl.Code); return true }) {
		t.Fatalf("%v: EverySubClass false under a predicate that holds", p)
	}
	slices.Sort(asked)
	if !slices.Equal(asked, want) || l.Searches != int64(len(want)) {
		t.Fatalf("%v: EverySubClass asked %d classes in %d searches, SubPatterns has %d", p, len(asked), l.Searches, len(want))
	}
	if len(want) > 0 {
		calls := 0
		if l.EverySubClass(p, func(*Class) bool { calls++; return false }) || calls != 1 {
			t.Fatalf("%v: EverySubClass went on after a refusal (%d calls)", p, calls)
		}
	}
}

func TestSubPatternsOfGeneratedPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 2; k <= 5; k++ {
		ps, err := ConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			checkSubPatterns(t, p, rng)
			checkSubPatterns(t, WithUniformLabels(p, 3, 4), rng)
		}
	}
}

// FuzzSubPatterns drives the same contract from fuzzed labeled patterns,
// connected or not.
func FuzzSubPatterns(f *testing.F) {
	f.Add(uint32(2), uint32(7), uint32(0), uint32(0))                  // triangle
	f.Add(uint32(3), uint32(0b100110), uint32(0), uint32(0))           // path
	f.Add(uint32(3), uint32(0b001011), uint32(0x39), uint32(0))        // labeled star
	f.Add(uint32(4), uint32(0b1100101001), uint32(0x1b), uint32(0x2d)) // labeled, edge-labeled
	f.Add(uint32(3), uint32(0b100001), uint32(0), uint32(0))           // two separate edges
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0))                  // single vertex
	f.Fuzz(func(t *testing.T, nRaw, edges, vlabBits, elabBits uint32) {
		checkSubPatterns(t, decodeFuzzPattern(nRaw, edges, vlabBits, elabBits), rand.New(rand.NewSource(int64(edges))))
	})
}
