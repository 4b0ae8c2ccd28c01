package pattern

import (
	"slices"
	"testing"

	"fractal/internal/graph"
)

// TestClassifySharesCodeAndRep: every numbering of a class gets the class's
// one Code string and one Rep pointer, and its own Perm.
func TestClassifySharesCodeAndRep(t *testing.T) {
	p := NewBuilder(3).SetVertexLabel(0, 901).SetVertexLabel(1, 902).SetVertexLabel(2, 903).
		AddEdge(0, 1, 7).AddEdge(1, 2, NoLabel).Build()
	q := p.Relabel([]int{2, 0, 1})
	a, b := Classify(p), Classify(q)
	if a.Code != b.Code || a.Rep != b.Rep {
		t.Fatalf("two numberings of one class: codes %q %q, reps %p %p", a.Code, b.Code, a.Rep, b.Rep)
	}
	if want := p.Canonical(); a.Code != want.Code || !slices.Equal(a.Perm, want.Perm) {
		t.Errorf("Classify(p) = %q %v, Canonical %q %v", a.Code, a.Perm, want.Code, want.Perm)
	}
	if !slices.Equal(b.Perm, q.Canonical().Perm) {
		t.Errorf("q's Perm %v, want its own numbering's %v", b.Perm, q.Canonical().Perm)
	}
	// Rep is the class in canonical vertex order, from whichever member.
	if a.Rep.Fingerprint() != p.Relabel(a.Perm).Fingerprint() || a.Rep.Fingerprint() != q.Relabel(b.Perm).Fingerprint() {
		t.Error("Rep is not the members relabeled to canonical positions")
	}
	if Classify(Triangle()).Code == a.Code {
		t.Error("distinct classes share a code")
	}
}

// TestCodeCacheOverClassTable: the CodeCache entry points the benchmark
// module calls stay correct and keep counting — a hit is a class the table
// already held — and hold nothing per fingerprint: representatives stay
// pointer-identical across more than 2^18 distinct fingerprints, the size at
// which the old cache dropped its entries wholesale.
func TestCodeCacheOverClassTable(t *testing.T) {
	c := NewCodeCache(0)
	// Stars with a fixed hub label and three leaf labels, the hub at each of
	// the four positions: 4 x 41^3 = 275 684 fingerprints, 12 341 classes.
	const leaves = 41
	reps := map[string]*Pattern{}
	fingerprints := map[string]bool{}
	calls := uint64(0)
	for hub := 0; hub < 4; hub++ {
		for x := 0; x < leaves*leaves*leaves; x++ {
			labels := [3]graph.Label{graph.Label(x % leaves), graph.Label(x / leaves % leaves), graph.Label(x / leaves / leaves)}
			b := NewBuilder(4).SetVertexLabel(hub, 5000)
			for i, leaf := 0, 0; i < 4; i++ {
				if i != hub {
					b.SetVertexLabel(i, labels[leaf]).AddEdge(hub, i, NoLabel)
					leaf++
				}
			}
			p := b.Build()
			fingerprints[p.Fingerprint()] = true
			canon, rep := c.CanonicalRep(p)
			calls++
			if first, ok := reps[canon.Code]; !ok {
				reps[canon.Code] = rep
			} else if first != rep {
				t.Fatalf("class %q: representative %p after %d fingerprints, first was %p", canon.Code, rep, len(fingerprints), first)
			}
			if x%997 == 0 { // spot-check correctness against the uncached search
				want := p.Canonical()
				if canon.Code != want.Code || !slices.Equal(canon.Perm, want.Perm) {
					t.Fatalf("CanonicalRep(%v) = %q %v, want %q %v", p, canon.Code, canon.Perm, want.Code, want.Perm)
				}
				if c.Canonical(p).Code != want.Code || c.Representative(p) != rep {
					t.Fatal("Canonical and Representative disagree with CanonicalRep")
				}
				calls += 2
			}
		}
	}
	if len(fingerprints) <= 1<<18 {
		t.Fatalf("only %d distinct fingerprints, want more than 2^18", len(fingerprints))
	}
	hits, misses := c.Stats()
	if hits+misses != calls {
		t.Errorf("hits %d + misses %d != %d calls", hits, misses, calls)
	}
	// Every class was new to the table at most once (another test may have
	// met one first), and every other call found it there.
	if misses > uint64(len(reps)) || hits < calls-uint64(len(reps)) {
		t.Errorf("hits %d misses %d for %d calls over %d classes", hits, misses, calls, len(reps))
	}
}

// TestFromEmbeddingTable pins what FromEmbedding builds, map-free as it now
// is: positions follow vs, edges with an endpoint outside vs are skipped,
// and of parallel edges in es the first one's label stands.
func TestFromEmbeddingTable(t *testing.T) {
	gb := graph.NewBuilder("multi")
	for i := 0; i < 5; i++ {
		gb.AddVertex(graph.Label(10 + i))
	}
	e01a := gb.MustAddEdge(0, 1, 1)
	e01b := gb.MustAddEdge(0, 1, 2) // parallel to e01a, other label
	e12 := gb.MustAddEdge(1, 2, 3)
	e23 := gb.MustAddEdge(2, 3)
	e04 := gb.MustAddEdge(0, 4, 4)
	g := gb.Build()

	type edge struct {
		u, v int
		l    graph.Label
	}
	for _, tc := range []struct {
		name   string
		vs     []graph.VertexID
		es     []graph.EdgeID
		labels []graph.Label
		edges  []edge
	}{
		{"first parallel edge wins", []graph.VertexID{0, 1}, []graph.EdgeID{e01a, e01b},
			[]graph.Label{10, 11}, []edge{{0, 1, 1}}},
		{"first in es order, not id order", []graph.VertexID{1, 0}, []graph.EdgeID{e01b, e01a},
			[]graph.Label{11, 10}, []edge{{0, 1, 2}}},
		{"positions follow vs", []graph.VertexID{2, 0, 1}, []graph.EdgeID{e12, e01a},
			[]graph.Label{12, 10, 11}, []edge{{0, 2, 3}, {1, 2, 1}}},
		{"edges leaving vs are skipped", []graph.VertexID{0, 1}, []graph.EdgeID{e01b, e12, e04},
			[]graph.Label{10, 11}, []edge{{0, 1, 2}}},
		{"unlabeled edge", []graph.VertexID{3, 2}, []graph.EdgeID{e23},
			[]graph.Label{13, 12}, []edge{{0, 1, NoLabel}}},
		{"vertex-induced takes the lowest edge id", []graph.VertexID{1, 0, 2}, nil,
			[]graph.Label{11, 10, 12}, []edge{{0, 1, 1}, {0, 2, 3}}},
		{"no edges", []graph.VertexID{4}, []graph.EdgeID{},
			[]graph.Label{14}, nil},
	} {
		p := FromEmbedding(g, tc.vs, tc.es)
		b := NewBuilder(len(tc.vs))
		for i, l := range tc.labels {
			b.SetVertexLabel(i, l)
		}
		for _, e := range tc.edges {
			b.AddEdge(e.u, e.v, e.l)
		}
		if want := b.Build(); p.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: got %v, want %v", tc.name, p, want)
		}
	}
}
