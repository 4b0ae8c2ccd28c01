package agg

// The seed (pre-kernel) DomainSupport implementation, retained verbatim as
// the differential-testing oracle for the allocation-free rewrite: the
// map-of-maps representation allocates len(vertices) hash sets per
// embedding, which is exactly the cost the sorted-slice kernel removes. The
// tests below feed identical embedding streams to both implementations —
// partitioned across simulated cores, merged in randomized orders, and round
// tripped through the wire — and require identical domains and supports.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// seedDomainSupport is the seed implementation's DomainSupport, verbatim
// (renamed; field and method bodies unchanged).
type seedDomainSupport struct {
	// Pat is a representative pattern for reporting (first seen wins).
	Pat *pattern.Pattern
	// Threshold is the minimum support α the mining run uses.
	Threshold int64
	// Domains[i] is the set of graph vertices bound to canonical position i.
	Domains []map[graph.VertexID]bool
}

func newSeedDomainSupport(p *pattern.Pattern, threshold int64, vertices []graph.VertexID, perm []int) *seedDomainSupport {
	ds := &seedDomainSupport{
		Pat:       p,
		Threshold: threshold,
		Domains:   make([]map[graph.VertexID]bool, len(vertices)),
	}
	for i := range ds.Domains {
		ds.Domains[i] = map[graph.VertexID]bool{}
	}
	for i, v := range vertices {
		ds.Domains[perm[i]][v] = true
	}
	return ds
}

func (ds *seedDomainSupport) Aggregate(other *seedDomainSupport) *seedDomainSupport {
	if ds == nil {
		return other
	}
	if other == nil {
		return ds
	}
	if ds.Pat == nil {
		ds.Pat = other.Pat
	}
	if len(other.Domains) != len(ds.Domains) {
		// Same canonical key implies same arity; defensive no-op otherwise.
		return ds
	}
	for i, d := range other.Domains {
		for v := range d {
			ds.Domains[i][v] = true
		}
	}
	return ds
}

func (ds *seedDomainSupport) Support() int64 {
	if len(ds.Domains) == 0 {
		return 0
	}
	min := int64(len(ds.Domains[0]))
	for _, d := range ds.Domains[1:] {
		if n := int64(len(d)); n < min {
			min = n
		}
	}
	return min
}

// oracleGraph builds a random simple labeled graph.
func oracleGraph(n int, p float64, labels int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder("oracle")
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.MustAddEdge(graph.VertexID(i), graph.VertexID(j), graph.Label(rng.Intn(labels)))
			}
		}
	}
	return b.Build()
}

// randomEmbedding samples a connected vertex set of the given size by a
// random neighbor-growth walk; ok is false when the walk got stuck.
func randomEmbedding(g *graph.Graph, size int, rng *rand.Rand) ([]graph.VertexID, bool) {
	start := graph.VertexID(rng.Intn(g.NumVertices()))
	vs := []graph.VertexID{start}
	in := map[graph.VertexID]bool{start: true}
	for len(vs) < size {
		var cands []graph.VertexID
		for _, v := range vs {
			for _, nb := range g.Neighbors(v) {
				if !in[nb] {
					cands = append(cands, nb)
				}
			}
		}
		if len(cands) == 0 {
			return nil, false
		}
		next := cands[rng.Intn(len(cands))]
		in[next] = true
		vs = append(vs, next)
	}
	return vs, true
}

type oracleEmbedding struct {
	code string
	pat  *pattern.Pattern
	vs   []graph.VertexID
	perm []int
}

// sampleEmbeddings draws a stream of canonicalized random embeddings from a
// random labeled graph.
func sampleEmbeddings(t *testing.T, rng *rand.Rand, count int) []oracleEmbedding {
	t.Helper()
	g := oracleGraph(60, 0.12, 3, rng)
	var out []oracleEmbedding
	for len(out) < count {
		vs, ok := randomEmbedding(g, 2+rng.Intn(4), rng)
		if !ok {
			continue
		}
		p := pattern.FromEmbedding(g, vs, nil)
		canon := p.Canonical()
		out = append(out, oracleEmbedding{code: canon.Code, pat: p, vs: vs, perm: canon.Perm})
	}
	return out
}

// TestDomainSupportMatchesSeedOracle is the differential pin of the
// allocation-free rewrite: identical randomized embedding streams folded
// through the seed map-of-maps implementation and through the kernel
// pipeline (scratch contributions, per-core partial stores, parallel tree
// merge, wire round trip) must yield identical per-position domains and
// supports for every pattern class.
func TestDomainSupportMatchesSeedOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			stream := sampleEmbeddings(t, rng, 600)

			// Oracle: sequential fold in stream order.
			oracle := map[string]*seedDomainSupport{}
			for _, e := range stream {
				oracle[e.code] = oracle[e.code].Aggregate(newSeedDomainSupport(e.pat, 2, e.vs, e.perm))
			}

			// Kernel pipeline: embeddings partitioned across simulated
			// cores, each with its own partial store fed scratch
			// contributions, then a parallel tree merge.
			cores := 1 + rng.Intn(7)
			partials := make([]Store, cores)
			for i := range partials {
				partials[i] = New[string, *DomainSupport](ReduceDomainSupport)
			}
			for _, e := range stream {
				a := partials[rng.Intn(cores)].(*Aggregation[string, *DomainSupport])
				a.Add(e.code, ScratchDomainSupport(e.pat, 2, e.vs, e.perm))
			}
			rng.Shuffle(cores, func(i, j int) { partials[i], partials[j] = partials[j], partials[i] })
			mergedStore, err := MergeTree(partials, nil)
			if err != nil {
				t.Fatal(err)
			}
			merged := mergedStore.(*Aggregation[string, *DomainSupport])

			// Wire round trip: the merged store's payload folded into an
			// empty store must preserve every domain.
			data, err := merged.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded := merged.NewEmpty().(*Aggregation[string, *DomainSupport])
			if err := decoded.DecodeAndMerge(data); err != nil {
				t.Fatal(err)
			}

			for name, a := range map[string]*Aggregation[string, *DomainSupport]{"merged": merged, "decoded": decoded} {
				if a.Len() != len(oracle) {
					t.Fatalf("%s has %d keys, oracle %d", name, a.Len(), len(oracle))
				}
				for code, want := range oracle {
					got, ok := a.Get(code)
					if !ok {
						t.Fatalf("%s missing class %q", name, code)
					}
					if got.Support() != want.Support() {
						t.Errorf("%s class %q support=%d, oracle %d", name, code, got.Support(), want.Support())
					}
					if len(got.Domains) != len(want.Domains) {
						t.Fatalf("%s class %q arity=%d, oracle %d", name, code, len(got.Domains), len(want.Domains))
					}
					for pos := range want.Domains {
						wantDom := make([]graph.VertexID, 0, len(want.Domains[pos]))
						for v := range want.Domains[pos] {
							wantDom = append(wantDom, v)
						}
						slices.Sort(wantDom)
						if !slices.Equal(got.Sorted(pos), wantDom) {
							t.Errorf("%s class %q position %d domain=%v, oracle %v",
								name, code, pos, got.Sorted(pos), wantDom)
						}
					}
					if got.Pat == nil {
						t.Errorf("%s class %q lost its representative pattern", name, code)
					}
				}
			}
		})
	}
}

// benchEmbeddings builds a fixed embedding workload for the old-vs-new
// benchmarks: triangle embeddings over a bounded vertex universe, so the
// accumulated domains saturate and steady-state per-embedding cost is what
// is measured.
func benchEmbeddings(n int) (p *pattern.Pattern, perm []int, verts [][]graph.VertexID) {
	p = pattern.Triangle()
	perm = p.Canonical().Perm
	rng := rand.New(rand.NewSource(42))
	verts = make([][]graph.VertexID, n)
	for i := range verts {
		a := graph.VertexID(rng.Intn(1024))
		b := graph.VertexID(rng.Intn(1024))
		c := graph.VertexID(rng.Intn(1024))
		for b == a {
			b = graph.VertexID(rng.Intn(1024))
		}
		for c == a || c == b {
			c = graph.VertexID(rng.Intn(1024))
		}
		verts[i] = []graph.VertexID{a, b, c}
	}
	return p, perm, verts
}

// BenchmarkDomainSupport measures the per-embedding aggregation hot loop —
// build one contribution and fold it into the accumulated support — for the
// retained seed oracle and the allocation-free kernel implementation.
func BenchmarkDomainSupport(b *testing.B) {
	p, perm, verts := benchEmbeddings(4096)
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		var acc *seedDomainSupport
		for i := 0; i < b.N; i++ {
			acc = acc.Aggregate(newSeedDomainSupport(p, 1, verts[i%len(verts)], perm))
		}
		if acc != nil && acc.Support() == 0 {
			b.Fatal("degenerate accumulation")
		}
	})
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		var acc *DomainSupport
		for i := 0; i < b.N; i++ {
			acc = acc.Aggregate(ScratchDomainSupport(p, 1, verts[i%len(verts)], perm))
		}
		if acc != nil && acc.Support() == 0 {
			b.Fatal("degenerate accumulation")
		}
	})
	b.Run("kernel-store", func(b *testing.B) {
		// The full store path FSM exercises: keyed Add of a scratch
		// contribution.
		b.ReportAllocs()
		a := New[string, *DomainSupport](ReduceDomainSupport)
		for i := 0; i < b.N; i++ {
			a.Add("tri", ScratchDomainSupport(p, 1, verts[i%len(verts)], perm))
		}
	})
}

// gobPattern and gobSupport are the gob shapes patterns and supports had
// while gob was a wire form of this package (PR 4 to PR 12). They survive
// here only, as the size and speed reference of the codec.
type gobPattern struct {
	N       int
	VLabels []graph.Label
	Edges   []struct {
		U, V  int
		Label graph.Label
	}
}

type gobSupport struct {
	Pat       *gobPattern
	Threshold int64
	Domains   [][]graph.VertexID
}

func gobPatternOf(p *pattern.Pattern) *gobPattern {
	if p == nil {
		return nil
	}
	w := &gobPattern{N: p.NumVertices()}
	for u := 0; u < w.N; u++ {
		w.VLabels = append(w.VLabels, p.VertexLabel(u))
		for v := u + 1; v < w.N; v++ {
			if p.HasEdge(u, v) {
				w.Edges = append(w.Edges, struct {
					U, V  int
					Label graph.Label
				}{u, v, p.EdgeLabel(u, v)})
			}
		}
	}
	return w
}

// gobSupports converts a support map to its gob reference shape.
func gobSupports(m map[string]*DomainSupport) map[string]gobSupport {
	out := make(map[string]gobSupport, len(m))
	for k, ds := range m {
		ds.compact()
		out[k] = gobSupport{Pat: gobPatternOf(ds.Pat), Threshold: ds.Threshold, Domains: ds.Domains}
	}
	return out
}

// benchStores builds equal-content stores in the seed shape (map of
// map-of-maps supports, shipped with reflection-driven gob — the seed wire
// path) and the kernel shape (sorted-domain supports, shipped with the
// binary codec).
func benchStores(keys, domain int) (map[string]*seedDomainSupport, *Aggregation[string, *DomainSupport]) {
	p := pattern.Triangle()
	perm := p.Canonical().Perm
	rng := rand.New(rand.NewSource(7))
	old := make(map[string]*seedDomainSupport, keys)
	a := New[string, *DomainSupport](ReduceDomainSupport)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("pattern-%03d", k)
		for d := 0; d < domain; d++ {
			vs := []graph.VertexID{
				graph.VertexID(rng.Intn(2048)),
				graph.VertexID(2048 + rng.Intn(2048)),
				graph.VertexID(4096 + rng.Intn(2048)),
			}
			old[key] = old[key].Aggregate(newSeedDomainSupport(p, 10, vs, perm))
			a.Add(key, NewDomainSupport(p, 10, vs, perm))
		}
	}
	return old, a
}

// BenchmarkAggEncode compares the seed wire path (gob over map-of-maps
// supports) with the compact binary codec on equal store contents.
func BenchmarkAggEncode(b *testing.B) {
	old, a := benchStores(64, 64)
	// The seed shipped the pattern through its gob form; the conversion is
	// outside the timed loop.
	type seedGob struct {
		Pat       *gobPattern
		Threshold int64
		Domains   []map[graph.VertexID]bool
	}
	ref := make(map[string]seedGob, len(old))
	for k, ds := range old {
		ref[k] = seedGob{Pat: gobPatternOf(ds.Pat), Threshold: ds.Threshold, Domains: ds.Domains}
	}
	b.Run("gob-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := a.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
