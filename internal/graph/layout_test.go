package graph

// Tests of the in-memory layout (DESIGN.md §13): what building a graph
// allocates against what the graph holds, the counting transpose against
// the seed Build's per-vertex sort, the payload-only form of label
// and keyword families against the offsets form, and ApplyKeywords' sharing.

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// heldBytes is the size of the arrays g holds, the edge-id index once it is
// built.
func heldBytes(g *Graph) uint64 {
	words := len(g.adjOff) + len(g.adjV) + len(g.esrc) + len(g.edst) +
		len(g.vlabOff) + len(g.vlab) + len(g.elabOff) + len(g.elab) +
		len(g.vkwOff) + len(g.vkw) + len(g.ekwOff) + len(g.ekw)
	if g.EdgeIndexed() {
		words += len(g.edgeIDs())
	}
	return 4 * uint64(words)
}

// allocated returns the heap bytes f allocates, garbage included.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIngestBudget is the memory gate of the ingest path, at the size of the
// repository benchmark's small_jobs_el input: a text load may allocate 1.02
// times what the graph it returns holds, from a reader and through LoadFile
// alike (1.01 measured: the 64 KiB line buffer, which the record count
// borrows, and the dictionary; the edge arrays and the vertex label payload
// are sized from that count. Edge arrays sized from the input's length and a
// doubling vertex label payload made it 1.12, a vertex label payload
// reserved from the edge estimate 1.19, one grown by append's 1.25x steps
// 1.24, a string per line far more). A one-label input holds its label once
// and allocates no |V|-sized label array; a two-label one holds and
// allocates the reserved column. Build allocates the neighbor adjacency
// and nothing else that grows with the graph — no edge-id index, no
// transpose buffer, no cursor array, no offsets for the one-label-each
// vertices or the unlabelled edges — and the edge-id index, built on first
// use, allocates its 2|E| ids and at most one |V| cursor.
func TestIngestBudget(t *testing.T) {
	src := benchBA()
	relabelled := NewBuilder("bench-ba-2")
	for v := range src.NumVertices() {
		relabelled.AddVertex(Label(v % 2))
	}
	for id := range src.NumEdges() {
		relabelled.MustAddEdge(src.EdgeEndpoints(EdgeID(id)))
	}

	var g *Graph
	var err error
	for _, in := range []struct {
		name   string
		g      *Graph
		labels int // payload length the loaded graph must hold
	}{
		{"one-label", src, 1},
		{"two-label", relabelled.Build(), src.NumVertices()},
	} {
		var text bytes.Buffer
		if err := WriteEdgeList(&text, in.g); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ba.el")
		if err := os.WriteFile(path, text.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			load func() (*Graph, error)
		}{
			{"LoadEdgeList", func() (*Graph, error) { return LoadEdgeList(bytes.NewReader(text.Bytes()), "ba") }},
			{"LoadFile", func() (*Graph, error) { return LoadFile(path) }},
		} {
			name := in.name + " " + c.name
			load := allocated(func() { g, err = c.load() })
			if err != nil || !sliceEq(g.adjOff, src.adjOff) || !sliceEq(g.adjV, src.adjV) {
				t.Fatalf("%s: the loaded graph is not the one written (%v)", name, err)
			}
			var again bytes.Buffer
			if err := WriteEdgeList(&again, g); err != nil || !bytes.Equal(again.Bytes(), text.Bytes()) {
				t.Fatalf("%s: the loaded graph writes another text (%v)", name, err)
			}
			if g.EdgeIndexed() {
				t.Fatalf("%s indexed the edge ids", name)
			}
			if len(g.vlab) != in.labels {
				t.Errorf("%s: %d vertex labels held, want %d", name, len(g.vlab), in.labels)
			}
			t.Logf("%s: %d bytes allocated, graph holds %d (%.3fx)", name, load, heldBytes(g), float64(load)/float64(heldBytes(g)))
			if float64(load) > 1.02*float64(heldBytes(g)) {
				t.Errorf("%s allocated %d bytes for a graph of %d: more than 1.02x", name, load, heldBytes(g))
			}
			if column := 4 * uint64(g.NumVertices()); in.labels == 1 && load >= heldBytes(g)+column {
				t.Errorf("%s allocated %d bytes beside the graph's %d: a %d-byte label column fits", name, load-heldBytes(g), heldBytes(g), column)
			}
		}
	}

	ids, cursor := 4*uint64(2*g.NumEdges()), 4*uint64(g.NumVertices())
	index := allocated(func() { g.IncidentEdges(0) })
	t.Logf("edge-id index: %d bytes allocated, %d ids and a cursor of %d", index, ids, cursor)
	if index < ids || index > ids+cursor+1<<14 { // two large objects' page rounding
		t.Errorf("the edge-id index allocated %d bytes: want its %d and at most a %d-byte cursor", index, ids, cursor)
	}
	if !sliceEq(g.edgeIDs(), src.edgeIDs()) {
		t.Error("the loaded graph's edge-id index is not the one written")
	}

	b := rebuilder(src)
	build := allocated(func() { g = b.Build() })
	adjacency := 4 * uint64(len(g.adjOff)+len(g.adjV))
	t.Logf("Build: %d bytes allocated, adjacency %d, graph holds %d (%.2fx)", build, adjacency, heldBytes(g), float64(build)/float64(heldBytes(g)))
	if g.vlabOff != nil || g.elabOff != nil || heldBytes(g) != heldBytes(src)-ids {
		t.Errorf("one label per vertex, none per edge: offsets %d/%d words, %d bytes held, want none and %d",
			len(g.vlabOff), len(g.elabOff), heldBytes(g), heldBytes(src)-ids)
	}
	if build > adjacency+1<<16 || float64(build) > 1.35*float64(heldBytes(g)) {
		t.Errorf("Build allocated %d bytes: the adjacency is %d", build, adjacency)
	}
}

// TestAdjacencyOrder pins the neighbor build and the lazily built edge-id
// index (read by checkCSRInvariants and EncodeFGR) against the seed Build's
// sort of every run, on a hub of degree 10^4 and parallel edges, added in
// random, sorted and reverse-sorted order, with isolated vertices at both
// ends of the id range, and on no edges at all.
func TestAdjacencyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	const n, hub, hubDegree, isolated = 3000, 1500, 12_000, 10
	type pair struct{ u, v VertexID }
	var edges []pair
	for i := 0; i < hubDegree; i++ { // more incidences than neighbors: parallel edges
		edges = append(edges, pair{hub, VertexID(r.Intn(n))})
	}
	for i := 0; i < 4*n; i++ {
		u := VertexID(r.Intn(n))
		edges = append(edges, pair{u, VertexID(r.Intn(n))}, pair{u, VertexID(r.Intn(40))})
	}
	for i := 0; i < 200; i++ { // short runs of nothing but parallel edges
		edges = append(edges, pair{VertexID(i), VertexID(n - 1 - i)}, pair{VertexID(n - 1 - i), VertexID(i)})
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(a, b pair) int {
		return cmp.Or(cmp.Compare(min(a.u, a.v), min(b.u, b.v)), cmp.Compare(max(a.u, a.v), max(b.u, b.v)))
	})
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)

	for _, c := range []struct {
		name  string
		shift VertexID // isolated vertices below the edges, as many above
		edges []pair
	}{
		{"random", 0, edges},
		{"sorted", 0, sorted},
		{"reverse-sorted", 0, reversed},
		{"isolated-ends", isolated, edges},
		{"no-edges", 0, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := &ops{name: "order"}
			for i := 0; i < n+2*int(c.shift); i++ {
				b.AddVertex(Label(i % 3))
			}
			lr := rand.New(rand.NewSource(19))
			for _, e := range c.edges {
				b.AddEdge(e.u+c.shift, e.v+c.shift, Label(lr.Intn(2))) // self-loops are refused by both builders
			}
			g := b.Build()
			if g.EdgeIndexed() {
				t.Fatal("Build indexed the edge ids")
			}
			if d := g.Degree(hub + c.shift); len(c.edges) > 0 && d < 10_000 {
				t.Fatalf("hub degree %d, want at least 10^4", d)
			}
			checkCSRInvariants(t, c.name, g)
			if !bytes.Equal(EncodeFGR(g), EncodeFGR(b.seed().Build())) {
				t.Fatal("adjacency differs from the seed Build's")
			}
		})
	}
}

// formRecipes build graphs whose label and keyword families sit on both
// sides of the payload-only rule. plain names the families ("vlab", "elab",
// "vkw", "ekw") that must come out without offsets.
var formRecipes = []struct {
	name  string
	plain string
	build func(b *ops)
}{
	{"one-label-each", "vlab elab vkw ekw", func(b *ops) {
		for i := 0; i < 6; i++ {
			b.AddVertex(Label(i % 2))
		}
		for i := 0; i < 5; i++ {
			b.MustAddEdge(VertexID(i), VertexID(i+1), 7)
		}
	}},
	{"one-label-then-another", "vlab elab vkw ekw", func(b *ops) {
		for i := 0; i < 3; i++ {
			b.AddVertex(4)
		}
		b.AddVertex(2)
		b.AddVertex(4)
		b.MustAddEdge(0, 4, 7)
	}},
	{"ensure-vertices-only", "vlab elab vkw ekw", func(b *ops) {
		b.EnsureVertices(5)
		b.MustAddEdge(0, 4)
		b.MustAddEdge(1, 4)
	}},
	{"no-vertices", "vlab elab vkw ekw", func(b *ops) {}},
	{"breaks-at-the-last-element", "vkw ekw", func(b *ops) {
		for i := 0; i < 5; i++ {
			b.AddVertex(3)
		}
		b.AddVertex(3, 4)
		for i := 0; i < 4; i++ {
			b.MustAddEdge(VertexID(i), VertexID(i+1), 1)
		}
		b.MustAddEdge(4, 5) // the one unlabelled edge
	}},
	{"label-replaced", "vlab elab vkw ekw", func(b *ops) {
		for i := 0; i < 4; i++ {
			b.AddVertex(1)
		}
		b.SetVertexLabels(2, 9)
		b.SetVertexLabels(0, 8)
		b.MustAddEdge(0, 3)
	}},
	{"replaced-by-a-pair", "elab vkw ekw", func(b *ops) {
		for i := 0; i < 4; i++ {
			b.AddVertex(1)
		}
		b.SetVertexLabels(1, 5, 2)
		b.MustAddEdge(0, 1)
	}},
	{"pair-replaced-by-one", "vlab elab vkw ekw", func(b *ops) {
		b.AddVertex(1)
		b.AddVertex(6, 6, 2) // breaks the shape
		b.AddVertex(1)
		b.SetVertexLabels(1, 4, 4) // and restores it: one label each after all
		b.MustAddEdge(0, 2)
	}},
	{"labelled-prefix", "elab vkw ekw", func(b *ops) {
		b.AddVertex(1)
		b.AddVertex(1)
		b.EnsureVertices(5)
		b.MustAddEdge(0, 4, 2)
	}},
	{"labelled-late", "elab vkw ekw", func(b *ops) {
		b.EnsureVertices(4)
		b.SetVertexLabels(2, 5)
		b.MustAddEdge(0, 1)
	}},
	{"label-cleared", "elab vkw ekw", func(b *ops) {
		for i := 0; i < 3; i++ {
			b.AddVertex(2)
		}
		b.SetVertexLabels(1)
		b.MustAddEdge(0, 1)
	}},
	{"keywords-one-each", "vlab elab vkw ekw", func(b *ops) {
		for i := 0; i < 3; i++ {
			b.SetVertexKeywords(b.AddVertex(0), Label(10+i))
		}
		b.MustAddEdge(0, 1)
		b.MustAddEdge(1, 2)
	}},
	{"keywords-mixed", "vlab elab", func(b *ops) {
		for i := 0; i < 3; i++ {
			b.AddVertex(0)
		}
		b.SetVertexKeywords(1, 11, 12)
		b.SetEdgeKeywords(b.MustAddEdge(0, 1), 13)
		b.MustAddEdge(1, 2)
	}},
}

// TestPayloadOnlyForms: whichever form a family takes, every accessor says
// what the seed representation — one slice per element — says, from the
// builder and from the decoder alike; the decoder arrives at the builder's
// form; and the encoding is the seed Build's, whose offsets are always
// materialized.
func TestPayloadOnlyForms(t *testing.T) {
	for _, rec := range formRecipes {
		t.Run(rec.name, func(t *testing.T) {
			b := &ops{name: rec.name}
			rec.build(b)
			want := seedBuild(b.seed())
			g, offsets := b.Build(), b.seed().Build()
			enc := EncodeFGR(g)
			if !bytes.Equal(enc, EncodeFGR(offsets)) {
				t.Fatal("encoding differs from the offsets form's")
			}
			dec, err := DecodeFGR(enc)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*Graph{g, dec, offsets} {
				pinAgainstSeed(t, want, got)
				if vl, el, ok := got.UniformLabels(); [3]any{vl, el, ok} != seedUniform(want) {
					t.Errorf("UniformLabels = (%d,%d,%v), the seed representation says %v", vl, el, ok, seedUniform(want))
				}
			}
			for _, got := range []*Graph{g, dec} {
				checkCSRInvariants(t, rec.name, got)
				for name, off := range map[string][]int32{"vlab": got.vlabOff, "elab": got.elabOff, "vkw": got.vkwOff, "ekw": got.ekwOff} {
					if plain := strings.Contains(rec.plain, name); plain != (off == nil) {
						t.Errorf("%s: offsets %v, want payload-only = %v", name, off, plain)
					}
				}
			}
		})
	}
}

// TestOneLabelColumn: a text graph whose every vertex has the same one label
// holds that label once, and one that leaves the form — a second label, a v
// record out of order, a middle vertex relabelled by a later record, an
// unlabelled tail or gap, a vertex with two labels — says through every
// accessor, the label census and Stats what the per-vertex form of the
// parent's loader says, decoded from its .fgr bytes too, which are the
// parent's.
func TestOneLabelColumn(t *testing.T) {
	for _, c := range []struct {
		name   string
		text   string
		shared bool // the graph holds one vertex label
	}{
		{"one-label", "v 0 a\nv 1 a\nv 2 a\nv 3 a\ne 0 3\n", true},
		{"second-label", "v 0 a\nv 1 a\nv 2 b\nv 3 a\ne 0 3\n", false},
		{"out-of-order", "v 0 a\nv 2 a\nv 1 a\nv 3 a\ne 1 2\n", true},
		{"middle-relabelled", "v 0 a\nv 1 a\nv 2 a\nv 3 a\nv 1 b\ne 1 2\n", false},
		{"middle-relabelled-back", "v 0 a\nv 1 a\nv 1 b\nv 2 a\nv 1 a\nv 3 a\n", true},
		{"unlabelled-tail", "v 0 a\nv 1 a\ne 1 3\n", false},
		{"unlabelled-gap", "v 0 a\nv 1 a\nv 3 a\ne 0 2\n", false},
		{"two-labels", "v 0 a\nv 1 a\nv 2 a,b\n", false},
		{"unlabelled", "v 0\nv 1\ne 0 1\n", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := LoadEdgeList(strings.NewReader(c.text), c.name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := seedLoadEdgeList(strings.NewReader(c.text), c.name)
			if err != nil {
				t.Fatal(err)
			}
			enc := EncodeFGR(g)
			if !bytes.Equal(enc, EncodeFGR(want)) {
				t.Fatal("encoding differs from the parent loader's")
			}
			dec, err := DecodeFGR(enc)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*Graph{g, dec} {
				checkCSRInvariants(t, c.name, got)
				if (len(got.vlab) == 1) != c.shared {
					t.Errorf("%d vertex labels held over %d vertices, want one shared = %v", len(got.vlab), got.NumVertices(), c.shared)
				}
				for v := range VertexID(want.NumVertices()) {
					if !sliceEq(got.VertexLabels(v), want.VertexLabels(v)) || got.VertexLabel(v) != want.VertexLabel(v) {
						t.Errorf("vertex %d: labels %v, first %d; per-vertex form says %v, %d",
							v, got.VertexLabels(v), got.VertexLabel(v), want.VertexLabels(v), want.VertexLabel(v))
					}
				}
				if got.NumLabels() != want.NumLabels() || got.Stats() != want.Stats() {
					t.Errorf("NumLabels %d, Stats %+v; per-vertex form says %d, %+v", got.NumLabels(), got.Stats(), want.NumLabels(), want.Stats())
				}
			}
		})
	}
}

// TestOneLabelGraphOperations runs what derives a graph from another, or
// writes one, on a one-label graph: Reduce keeps the shared label,
// ApplyKeywords shares it and holds a one-keyword family the same way —
// leaving that form when a second sidecar breaks it — and WriteEdgeList and
// EncodeFGR write what the parent's per-vertex form writes.
func TestOneLabelGraphOperations(t *testing.T) {
	const text = "v 0 a\nv 1 a\nv 2 a\nv 3 a\nv 4 a\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
	g, err := LoadEdgeList(strings.NewReader(text), "one")
	if err != nil {
		t.Fatal(err)
	}
	want, err := seedLoadEdgeList(strings.NewReader(text), "one")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.vlab) != 1 {
		t.Fatalf("%d vertex labels held, want 1", len(g.vlab))
	}

	var out, seedOut bytes.Buffer
	if err := WriteEdgeList(&out, g); err != nil {
		t.Fatal(err)
	}
	if err := seedWriteEdgeList(&seedOut, want); err != nil {
		t.Fatal(err)
	}
	if out.String() != seedOut.String() || out.String() != text {
		t.Errorf("WriteEdgeList wrote\n%s\nthe per-vertex form writes\n%s", out.String(), seedOut.String())
	}
	if !bytes.Equal(EncodeFGR(g), EncodeFGR(want)) {
		t.Error("EncodeFGR differs from the per-vertex form's")
	}

	r := Reduce(g, func(v VertexID, _ *Graph) bool { return v != 2 }, nil)
	checkCSRInvariants(t, "reduced", r)
	if len(r.vlab) != 1 || r.NumVertices() != 4 || r.NumLabels() != 1 || r.VertexLabel(3) != g.VertexLabel(0) {
		t.Errorf("reduced: %d labels held over %d vertices, %d distinct, vertex 3 labelled %d",
			len(r.vlab), r.NumVertices(), r.NumLabels(), r.VertexLabel(3))
	}

	sidecars := []string{"v 0 k\nv 1 k\nv 2 k\nv 3 k\nv 4 k\n", "v 3 m\n"}
	kw, seedKW := g, want
	for i, sidecar := range sidecars {
		if kw, err = ApplyKeywords(kw, strings.NewReader(sidecar)); err != nil {
			t.Fatal(err)
		}
		if seedKW, err = seedApplyKeywords(seedKW, strings.NewReader(sidecar)); err != nil {
			t.Fatal(err)
		}
		checkCSRInvariants(t, "keywords applied", kw)
		if !bytes.Equal(EncodeFGR(kw), EncodeFGR(seedKW)) {
			t.Fatalf("sidecar %d: differs from the seed ApplyKeywords", i)
		}
		if &kw.vlab[0] != &g.vlab[0] {
			t.Errorf("sidecar %d: the result has a label column of its own", i)
		}
		if shared := len(kw.vkw) == 1; shared != (i == 0) {
			t.Errorf("sidecar %d: %d keywords held over %d vertices", i, len(kw.vkw), kw.NumVertices())
		}
	}
}

// seedUniform is UniformLabels over the seed representation.
func seedUniform(g *seedGraph) [3]any {
	no := [3]any{Label(0), Label(0), false}
	first := func(ls []Label) Label {
		if len(ls) == 0 {
			return -1
		}
		return ls[0]
	}
	if g.numVertices() == 0 {
		return no
	}
	vl, el := first(g.vlabels[0]), Label(-1)
	for _, ls := range g.vlabels {
		if len(ls) > 1 || first(ls) != vl {
			return no
		}
	}
	for i, e := range g.edges {
		if i == 0 {
			el = first(e.Labels)
		} else if first(e.Labels) != el {
			return no
		}
	}
	return [3]any{vl, el, true}
}

// TestApplyKeywordsShares: the result encodes as the seed ApplyKeywords'
// rebuilt copy does, leaves its input as it was, and shares every array but
// the keyword families with it.
func TestApplyKeywordsShares(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := []func(*rand.Rand) *ops{erBuilder, multiBuilder}[seed%2](r) // with keywords of its own, and without
		g, oracle := src.Build(), src.seed().Build()
		var sidecar strings.Builder
		for i := r.Intn(12); i > 0 && g.NumEdges() > 0; i-- {
			kind, n := "v", g.NumVertices()
			if r.Intn(2) == 0 {
				kind, n = "e", g.NumEdges()
			}
			fmt.Fprintf(&sidecar, "%s %d k%d,k%d\n", kind, r.Intn(n), r.Intn(4), r.Intn(4))
		}
		before := *g
		out, err := ApplyKeywords(g, strings.NewReader(sidecar.String()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := seedApplyKeywords(oracle, strings.NewReader(sidecar.String()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeFGR(out), EncodeFGR(want)) {
			t.Fatalf("seed %d: differs from the seed ApplyKeywords on:\n%s", seed, sidecar.String())
		}
		checkCSRInvariants(t, "keywords applied", out)
		pinAgainstSeed(t, seedBuild(src.seed()), g) // the input still says what it said
		if g.hasKW != before.hasKW || !sliceEq(g.vkw, before.vkw) || !sliceEq(g.ekw, before.ekw) ||
			!sliceEq(g.vkwOff, before.vkwOff) || !sliceEq(g.ekwOff, before.ekwOff) {
			t.Fatalf("seed %d: ApplyKeywords changed its input's keywords", seed)
		}
		if len(g.adjV) > 0 && (&out.adjV[0] != &g.adjV[0] || out.adjE != g.adjE || &out.esrc[0] != &g.esrc[0]) {
			t.Errorf("seed %d: the result has its own copy of the adjacency", seed)
		}
		if len(g.vkw) > 0 && len(out.vkw) > 0 && &out.vkw[0] == &g.vkw[0] {
			t.Errorf("seed %d: the result writes into its input's keyword payload", seed)
		}
	}
}

// TestEdgeIndexOnce has many goroutines make the first edge-id call on a
// freshly built graph and on a keyword graph derived from it before either
// was indexed: every one must see the one index, built once and shared by
// both graphs, and equal to the seed Build's. Run under -race it is the
// index's synchronisation check.
func TestEdgeIndexOnce(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	const n = 300
	bld := &ops{name: "index-once"}
	for i := 0; i < n; i++ {
		bld.AddVertex(Label(r.Intn(3)))
	}
	for i := 0; i < 8*n; i++ { // parallel edges among the low ids
		u, v := VertexID(r.Intn(n)), VertexID(r.Intn(40))
		if u != v {
			bld.MustAddEdge(u, v, Label(r.Intn(2)))
		}
	}
	seed := seedBuild(bld.seed())
	g := bld.Build()
	out, err := ApplyKeywords(g, strings.NewReader("v 0 k\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeIndexed() || out.EdgeIndexed() {
		t.Fatal("the edge ids were indexed before anything asked for them")
	}
	const workers = 16
	v := VertexID(0)
	for g.Degree(v) == 0 {
		v++
	}
	w := g.Neighbors(v)[0]
	firsts := make([]*EdgeID, workers)
	between := make([][]EdgeID, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := []*Graph{g, out}[i%2]
			if i%4 < 2 {
				firsts[i] = &h.IncidentEdges(v)[0]
			} else {
				between[i] = h.EdgesBetween(v, w, nil)
			}
		}(i)
	}
	wg.Wait()
	if !g.EdgeIndexed() || !out.EdgeIndexed() {
		t.Fatal("a graph does not report the index it handed out")
	}
	want := &g.IncidentEdges(v)[0]
	var wantBetween []EdgeID
	for i, x := range seed.neighbors(v) {
		if x == w {
			wantBetween = append(wantBetween, seed.incidentEdges(v)[i])
		}
	}
	for i := 0; i < workers; i++ {
		if i%4 < 2 && firsts[i] != want {
			t.Errorf("goroutine %d read an index of its own", i)
		}
		if i%4 >= 2 && !sliceEq(between[i], wantBetween) {
			t.Errorf("goroutine %d: EdgesBetween(%d, %d) = %v, seed says %v", i, v, w, between[i], wantBetween)
		}
	}
	pinAgainstSeed(t, seed, g)
}
