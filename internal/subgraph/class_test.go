package subgraph

import (
	"math/rand"
	"slices"
	"testing"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/workload"
)

// wantEdges is the documented edge list of e's current state: per
// vertex-induced level every edge between its vertex and each earlier member
// in order, parallel edges ascending; the pushed words of an edge-induced
// embedding; per pattern-induced level the first edge matching each
// backward reference of the plan.
func wantEdges(e *Embedding) []graph.EdgeID {
	var want []graph.EdgeID
	for k, w := range e.words {
		switch e.kind {
		case VertexInduced:
			for _, m := range e.vertices[:k] {
				want = e.g.EdgesBetween(graph.VertexID(w), m, want)
			}
		case EdgeInduced:
			want = append(want, graph.EdgeID(w))
		case PatternInduced:
			for _, b := range e.plan.Back[k] {
				for _, id := range e.g.EdgesBetween(graph.VertexID(w), e.vertices[b.Pos], nil) {
					if b.ELabel == pattern.NoLabel || e.g.EdgeLabel(id) == b.ELabel {
						want = append(want, id)
						break
					}
				}
			}
		}
	}
	return want
}

// checkClass holds the edges and the memo to the per-embedding path at the
// current state of e: Edges is wantEdges and NumEdges its length, the quick
// key is the fingerprint of the embedding's labeled subgraph byte for byte
// (so two keys are equal iff the fingerprints are), and Class is what
// canonicalising that pattern from scratch gives. Past six vertices only the
// key is checked: the labelling search is exponential, and the keys are
// what must stay exact at any size.
func checkClass(t *testing.T, e *Embedding) {
	t.Helper()
	edges := e.Edges()
	if want := wantEdges(e); !slices.Equal(edges, want) {
		t.Fatalf("%s %s words=%v: Edges() %v, want %v", e.g.Name(), e.kind, e.words, edges, want)
	}
	if n := e.NumEdges(); n != len(edges) {
		t.Fatalf("%s %s words=%v: NumEdges() %d, %d edges", e.g.Name(), e.kind, e.words, n, len(edges))
	}
	p := pattern.FromEmbedding(e.g, e.vertices, edges)
	if e.kind != PatternInduced {
		// For these kinds the subgraph is what Pattern() describes.
		if q := e.Pattern(); q.Fingerprint() != p.Fingerprint() {
			t.Fatalf("%s %s words=%v: Pattern() %v, labeled subgraph %v", e.g.Name(), e.kind, e.words, q, p)
		}
	}
	if key := e.appendQuickKey(nil); string(key) != p.Fingerprint() {
		t.Fatalf("%s %s words=%v: quick key %x, fingerprint %x", e.g.Name(), e.kind, e.words, key, p.Fingerprint())
	}
	if len(e.vertices) > 6 {
		return
	}
	cl, want := e.Class(), p.Canonical()
	if cl.Code != want.Code || !slices.Equal(cl.Perm, want.Perm) {
		t.Fatalf("%s %s words=%v: Class %q %v, Canonical %q %v", e.g.Name(), e.kind, e.words, cl.Code, cl.Perm, want.Code, want.Perm)
	}
	if cl.Rep != pattern.Classify(p).Rep {
		t.Fatalf("%s %s words=%v: Class hands out a representative of its own", e.g.Name(), e.kind, e.words)
	}
	if e.Class() != cl {
		t.Fatal("a second Class on the same state looked the class up again")
	}
}

// classWalks checks the edges and the memo along random descents of e's
// enumeration tree, on the way down and again after each Pop — a stale memo
// shows as the class of the longer embedding. Each state is checked with
// probability 2/3 and the last one always, so edges are read at random
// depths: levels stay unresolved across pushes, and pops go below the
// resolved depth before the walk pushes again.
func classWalks(t *testing.T, e *Embedding, maxDepth int, seed int64, walks int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	maybeCheck := func() {
		if rng.Intn(3) > 0 {
			checkClass(t, e)
		}
	}
	var exts []Word
	for walk := 0; walk < walks; walk++ {
		e.Reset()
		w := Word(rng.Intn(e.InitialDomain()))
		if !e.ValidInitial(w) {
			continue
		}
		e.Push(w)
		maybeCheck()
		for e.Len() < maxDepth {
			exts, _ = e.Extensions(exts[:0])
			if len(exts) == 0 {
				break
			}
			e.Push(exts[rng.Intn(len(exts))])
			maybeCheck()
		}
		for e.Len() > 1 {
			e.Pop()
			maybeCheck()
		}
		checkClass(t, e)
	}
	if cs := e.ClassStats(); cs.CanonCalls != cs.QuickPatterns {
		t.Errorf("%s %s: %d quick patterns, %d canonical labellings: want one labelling per quick pattern", e.g.Name(), e.kind, cs.QuickPatterns, cs.CanonCalls)
	}
}

// TestClassMatchesPerEmbeddingLabelling walks every kind over the oracle
// graphs — single- and multi-label, and a multigraph whose parallel edges
// carry different labels — to depths past 8 vertices.
func TestClassMatchesPerEmbeddingLabelling(t *testing.T) {
	for i, g := range oracleGraphs() {
		classWalks(t, New(g, VertexInduced, nil), 5, int64(10+i), 150)
		classWalks(t, New(g, EdgeInduced, nil), 4, int64(20+i), 150)
		classWalks(t, New(g, EdgeInduced, nil), 11, int64(30+i), 10) // up to 12 vertices
		for j, pl := range oraclePlans(t) {
			classWalks(t, New(g, PatternInduced, pl), len(pl.Order), int64(40+10*i+j), 60)
		}
	}
}

// FuzzQuickKey drives the same check from fuzzed graphs and walks: a random
// multigraph (parallel edges, independent labels) of fuzzed size and label
// count, every kind, fuzzed depth.
func FuzzQuickKey(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), uint8(3), uint8(4))
	f.Add(int64(2), uint8(30), uint8(90), uint8(1), uint8(10))
	f.Add(int64(3), uint8(6), uint8(60), uint8(5), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, m, labels, depth uint8) {
		if n < 2 || m == 0 || labels == 0 {
			return
		}
		g := oracleMultigraph("fuzz", int(n), int(m), int(labels), seed)
		if g.NumEdges() == 0 {
			return
		}
		d := 1 + int(depth)%12
		classWalks(t, New(g, EdgeInduced, nil), d, seed, 8)
		classWalks(t, New(g, VertexInduced, nil), d, seed, 8)
	})
}

// TestClassHitAllocatesNothing: on the second visit of a quick pattern the
// whole FSM aggregate callback — quick key, memo lookup, scratch domain
// support, Add onto an existing key — allocates nothing, for edge-induced
// and vertex-induced embeddings. Under the race detector, whose sync.Pool
// drops items, only the quick-pattern count is checked.
func TestClassHitAllocatesNothing(t *testing.T) {
	g := workload.BarabasiAlbert("alloc-ba", 500, 6, 3, 9)
	for _, kind := range []Kind{EdgeInduced, VertexInduced} {
		e := New(g, kind, nil)
		var exts []Word
		e.Push(0)
		for e.Len() < 3 {
			exts, _ = e.Extensions(exts[:0])
			e.Push(exts[0])
		}
		last := e.Words()[e.Len()-1]
		store := agg.New[string, *agg.DomainSupport](agg.ReduceDomainSupport)
		emit := func() {
			cl := e.Class()
			store.Add(cl.Code, agg.ScratchDomainSupport(cl.Rep, 2, e.Vertices(), cl.Perm))
		}
		emit() // first visit: the miss, the key's first store
		allocs := testing.AllocsPerRun(200, func() {
			e.Pop()
			e.Push(last) // a new embedding state of a known quick pattern
			emit()
		})
		if allocs != 0 && !raceEnabled {
			t.Errorf("%s: memo hit + aggregate allocates %.1f times per embedding, want 0", kind, allocs)
		}
		if quick := e.ClassStats().QuickPatterns; quick != 1 {
			t.Errorf("%s: %d quick patterns, want 1", kind, quick)
		}
	}
}

// TestClassOfPatternInducedMatch pins what Class means for a
// pattern-induced embedding: the match with the graph's labels filled in,
// which for an induced plan is the induced labeled pattern — the key the
// labeled-motifs kernel aggregates on.
func TestClassOfPatternInducedMatch(t *testing.T) {
	g := workload.ErdosRenyi("pi-class", 40, 160, 3, 5)
	pl, err := pattern.NewInducedPlan(pattern.Path(3))
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, PatternInduced, pl)
	n := 0
	enumerate(e, 3, func(e *Embedding) {
		induced := pattern.FromEmbedding(g, e.Vertices(), nil)
		if got, want := e.Class().Code, induced.Canonical().Code; got != want {
			t.Fatalf("vertices %v: Class %q, induced labeled pattern %q", e.Vertices(), got, want)
		}
		n++
	})
	if n == 0 {
		t.Fatal("no induced path matched")
	}
}

// TestClassFilterDecidedOncePerClass runs two counting class filters over
// more than 10⁵ edge-induced embeddings: each predicate runs once per class,
// every embedding gets its class's verdict, and the counters say what was
// refused.
func TestClassFilterDecidedOncePerClass(t *testing.T) {
	g := workload.SkewLabels(workload.BarabasiAlbert("verdicts-ba", 900, 3, 1, 5), 5, 5)
	e := New(g, EdgeInduced, nil)
	var calls [2]int
	// Filter 0 refuses classes whose code ends in an odd byte, filter 1 the
	// ones whose representative has a vertex of degree three.
	odd := func(cl *pattern.Class) bool { return cl.Code[len(cl.Code)-1]&1 == 0 }
	noHub := func(cl *pattern.Class) bool {
		for v := 0; v < cl.Rep.NumVertices(); v++ {
			if cl.Rep.Degree(v) == 3 {
				return false
			}
		}
		return true
	}
	classes := map[string]bool{}
	refusedClasses := [2]map[string]bool{{}, {}}
	var embeddings, refused int64
	enumerate(e, 3, func(e *Embedding) {
		embeddings++
		cl := e.Class()
		classes[cl.Code] = true
		if cl.Perm == nil || cl.Rep == nil {
			t.Fatal("the embedding's view lost its Perm or Rep")
		}
		for bit, pred := range []func(*pattern.Class) bool{odd, noHub} {
			got := e.ClassPasses(bit, func(shared *pattern.Class, _ *pattern.Labeller) bool {
				calls[bit]++
				if shared.Code != cl.Code || shared.Rep != cl.Rep || shared.Perm != nil {
					t.Fatalf("filter %d sees %q, the embedding's class is %q", bit, shared.Code, cl.Code)
				}
				return pred(shared)
			})
			if got != pred(cl) {
				t.Fatalf("filter %d on %q: verdict %v, predicate %v", bit, cl.Code, got, pred(cl))
			}
			if !got {
				refused++
				refusedClasses[bit][cl.Code] = true
			}
		}
	})
	if embeddings < 100_000 {
		t.Fatalf("only %d embeddings", embeddings)
	}
	if calls[0] != len(classes) || calls[1] != len(classes) {
		t.Errorf("predicates ran %v times over %d embeddings of %d classes: want once per class", calls, embeddings, len(classes))
	}
	cs := e.ClassStats()
	if want := int64(len(refusedClasses[0]) + len(refusedClasses[1])); cs.ClassesPruned != want || cs.SubgraphsPruned != refused || want == 0 {
		t.Errorf("stats %+v, want %d classes and %d subgraphs pruned", cs, want, refused)
	}
	if cs.CanonCalls != cs.QuickPatterns {
		t.Errorf("%d labellings for %d quick patterns: these predicates label nothing", cs.CanonCalls, cs.QuickPatterns)
	}
}

// TestClassMissAllocatesOnlyItsKey: once the process's class table knows the
// classes, a memo miss — quick key, pattern on the labeller's scratch,
// labelling search, table lookup, entry stored by value — allocates the
// memo's own copy of the key and nothing else, and a verdict asked on a hit
// allocates nothing at all.
func TestClassMissAllocatesOnlyItsKey(t *testing.T) {
	g := workload.SkewLabels(workload.BarabasiAlbert("miss-ba", 400, 3, 1, 6), 4, 6)
	e := New(g, EdgeInduced, nil)
	// One embedding of each of the first quick patterns met.
	var states [][]Word
	enumerate(e, 3, func(e *Embedding) {
		if before := e.ClassStats().QuickPatterns; len(states) < 64 {
			if e.Class(); e.ClassStats().QuickPatterns > before {
				states = append(states, append([]Word(nil), e.Words()...))
			}
		}
	})
	if len(states) < 64 {
		t.Fatalf("only %d quick patterns", len(states))
	}
	visit := func() {
		for _, words := range states {
			e.Replay(words)
			if e.Class().Rep == nil {
				t.Fatal("no class")
			}
			e.ClassPasses(0, func(*pattern.Class, *pattern.Labeller) bool { return true })
		}
	}
	misses := testing.AllocsPerRun(20, func() {
		// Every state misses again; buckets, entries and scratch stay.
		clear(e.memo.m)
		e.memo.entries = e.memo.entries[:0]
		visit()
	})
	if perMiss := misses / float64(len(states)); perMiss > 1 {
		t.Errorf("a miss allocates %.2f times, want its key and nothing else", perMiss)
	}
	if hits := testing.AllocsPerRun(20, visit); hits != 0 {
		t.Errorf("%d hits with a verdict each allocate %.1f times, want 0", len(states), hits)
	}
}

// TestPackedPermRoundTrip: every permutation of up to eight positions packs
// into a word and comes back, and a wider embedding's permutation, kept as a
// slice, is the labelling search's own — on the miss and on the hit.
func TestPackedPermRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 0; n <= packedPermVertices; n++ {
		for trial := 0; trial < 200; trial++ {
			perm := rng.Perm(n)
			if got := unpackPerm(packPerm(perm), make([]int, n)); !slices.Equal(got, perm) {
				t.Fatalf("n=%d: %v packed and unpacked is %v", n, perm, got)
			}
		}
	}
	// A path of twelve vertices labeled in ascending order: the labelling
	// search's first ordering is the minimum.
	b := graph.NewBuilder("wide-path")
	for i := 0; i < 12; i++ {
		b.AddVertex(graph.Label(i))
	}
	for i := 0; i+1 < 12; i++ {
		b.MustAddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	e := New(b.Build(), EdgeInduced, nil)
	for id := Word(0); id < 11; id++ {
		e.Push(id)
		for visit := 0; visit < 2; visit++ { // the miss, then the hit
			cl, want := e.Class(), e.Pattern().Canonical()
			if cl.Code != want.Code || !slices.Equal(cl.Perm, want.Perm) {
				t.Fatalf("%d vertices, visit %d: Class %v, Canonical %v", e.NumVertices(), visit, cl.Perm, want.Perm)
			}
			e.memo.resolved = false
		}
	}
	if len(e.memo.wide) != 9+10+11+12 {
		t.Errorf("%d positions kept as slices, want those of the 9- to 12-vertex paths", len(e.memo.wide))
	}
}
