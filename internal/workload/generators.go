// Package workload provides the deterministic synthetic datasets used by
// the benchmark harness: scaled-down analogs of the paper's evaluation
// graphs (Table 1) that preserve the properties GPM behaviour depends on —
// degree distribution (heavy tails drive load skew), density ordering,
// label multiplicity (drives pattern-class counts), and keyword locality
// (drives graph-reduction benefit).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fractal/internal/graph"
)

// ErdosRenyi generates a G(n, m) random simple graph with the given number
// of vertex labels, deterministic under seed.
func ErdosRenyi(name string, n, m, labels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	seen := map[[2]graph.VertexID]bool{}
	for b.NumEdges() < m {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]graph.VertexID{u, v}] {
			continue
		}
		seen[[2]graph.VertexID{u, v}] = true
		b.MustAddEdge(u, v)
	}
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches to mPer existing vertices with probability proportional to their
// degree, producing the heavy-tailed degree distribution of citation and
// social networks (Patents, Youtube, Orkut).
func BarabasiAlbert(name string, n, mPer, labels int, seed int64) *graph.Graph {
	return BarabasiAlbertCapped(name, n, mPer, labels, 0, seed)
}

// BarabasiAlbertCapped is BarabasiAlbert with an optional maximum degree
// (0 = unbounded): capped hubs model networks whose per-node fanout is
// bounded by construction, like video-relatedness lists.
func BarabasiAlbertCapped(name string, n, mPer, labels, maxDeg int, seed int64) *graph.Graph {
	if mPer < 1 {
		mPer = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	start := mPer + 1
	if start > n {
		start = n
	}
	// urn holds one entry per degree unit (the classic BA urn): the seed
	// clique's, then at most 2·mPer per later vertex.
	urn := make([]graph.VertexID, 0, start*(start-1)+2*mPer*(n-start))
	// Seed clique among the first vertices.
	for i := 0; i < start; i++ {
		for j := i + 1; j < start; j++ {
			b.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
			urn = append(urn, graph.VertexID(i), graph.VertexID(j))
		}
	}
	// degree is kept only under a cap, the one thing that reads it.
	var degree []int
	if maxDeg > 0 {
		degree = make([]int, n)
		for i := 0; i < start; i++ {
			degree[i] = start - 1
		}
	}
	picks := make([]graph.VertexID, 0, mPer)
	for v := start; v < n; v++ {
		picks = picks[:0]
		for attempts := 0; len(picks) < mPer && attempts < 64*mPer; attempts++ {
			var u graph.VertexID
			if len(urn) == 0 {
				u = graph.VertexID(rng.Intn(v))
			} else {
				u = urn[rng.Intn(len(urn))]
			}
			if int(u) >= v || slices.Contains(picks, u) {
				continue
			}
			if maxDeg > 0 && degree[u] >= maxDeg {
				// Redirect to a uniform random vertex below the cap.
				u = graph.VertexID(rng.Intn(v))
				if slices.Contains(picks, u) || degree[u] >= maxDeg {
					continue
				}
			}
			picks = append(picks, u)
		}
		// Attach in vertex order, not draw order: the order fixes the urn
		// layout and thus every later draw, and each seed's graph is pinned
		// (TestGeneratorsDeterministicAcrossRuns).
		slices.Sort(picks)
		for _, u := range picks {
			b.MustAddEdge(graph.VertexID(v), u)
			urn = append(urn, graph.VertexID(v), u)
			if degree != nil {
				degree[u]++
				degree[v]++
			}
		}
	}
	return b.Build()
}

// SkewLabels returns a copy of g whose vertex labels are redrawn from a
// Zipf-like distribution over the given label count: real attribute
// distributions (patent years, video categories) are heavily skewed, which
// is what makes labeled patterns frequent.
func SkewLabels(g *graph.Graph, labels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.4, 1.0, uint64(labels-1))
	b := graph.NewBuilder(g.Name())
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(graph.Label(zipf.Uint64()))
	}
	for id := 0; id < g.NumEdges(); id++ {
		e := g.EdgeByID(graph.EdgeID(id))
		b.MustAddEdge(e.Src, e.Dst, e.Labels...)
	}
	return b.Build()
}

// Community generates a planted-partition graph: dense communities with
// sparse inter-community edges, the co-authorship structure of Mico.
// Vertices in the same community share a biased label distribution, so
// patterns concentrate as they do in real labeled networks.
func Community(name string, communities, perCommunity int, degIn, degOut float64, labels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name)
	n := communities * perCommunity
	for i := 0; i < n; i++ {
		comm := i / perCommunity
		// Each community favors a small set of labels.
		l := (comm*3 + rng.Intn(3)) % labels
		b.AddVertex(graph.Label(l))
	}
	seen := map[[2]graph.VertexID]bool{}
	addEdge := func(u, v graph.VertexID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]graph.VertexID{u, v}] {
			return
		}
		seen[[2]graph.VertexID{u, v}] = true
		b.MustAddEdge(u, v)
	}
	for c := 0; c < communities; c++ {
		base := c * perCommunity
		for k := 0; k < int(degIn*float64(perCommunity))/2; k++ {
			u := graph.VertexID(base + rng.Intn(perCommunity))
			v := graph.VertexID(base + rng.Intn(perCommunity))
			addEdge(u, v)
		}
	}
	for k := 0; k < int(degOut*float64(n))/2; k++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		addEdge(u, v)
	}
	return b.Build()
}

// KnowledgeGraph generates a Wikidata-like attributed graph: very sparse
// (tree-ish with extra links), with edge labels (predicates) and Zipf-
// distributed keywords on vertices and edges. Keyword names are "kw0"
// (most frequent) through "kw<keywords-1>" (rarest), so benchmark queries
// can select keywords of known selectivity.
func KnowledgeGraph(name string, n, m, predicates, keywords int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name)
	d := b.Dict()
	kw := make([]graph.Label, keywords)
	for i := range kw {
		kw[i] = d.Intern(fmt.Sprintf("kw%d", i))
	}
	zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(keywords-1))
	pickKws := func(count int) []graph.Label {
		out := make([]graph.Label, 0, count)
		for i := 0; i < count; i++ {
			out = append(out, kw[zipf.Uint64()])
		}
		return out
	}
	for i := 0; i < n; i++ {
		v := b.AddVertex(graph.Label(rng.Intn(predicates)))
		b.SetVertexKeywords(v, pickKws(1+rng.Intn(3))...)
	}
	// Random spanning structure + extra links, preferential-ish via
	// attaching to low random ranges (hubs at small IDs).
	addAttr := func(u, v graph.VertexID) {
		id, err := b.AddEdge(u, v, graph.Label(rng.Intn(predicates)))
		if err != nil {
			return
		}
		b.SetEdgeKeywords(id, pickKws(1+rng.Intn(2))...)
	}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		if rng.Float64() < 0.7 {
			u = rng.Intn(int(math.Sqrt(float64(v))) + 1) // hubbiness
		}
		addAttr(graph.VertexID(u), graph.VertexID(v))
	}
	for b.NumEdges() < m {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u != v {
			addAttr(u, v)
		}
	}
	return b.Build()
}

// Relabel returns a copy of g with all vertex labels collapsed to a single
// label: the "-SL" (single-labeled) dataset variants of the paper.
func Relabel(g *graph.Graph, name string) *graph.Graph {
	b := graph.NewBuilder(name)
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(0)
	}
	for id := 0; id < g.NumEdges(); id++ {
		e := g.EdgeByID(graph.EdgeID(id))
		b.MustAddEdge(e.Src, e.Dst)
	}
	return b.Build()
}
