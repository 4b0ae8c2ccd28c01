package subgraph

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"fractal/internal/graph"
	"fractal/internal/workload"
)

// bruteLocals computes the sweep's locals the slow way: distinct-neighbor
// degrees, distinct common-neighbor counts per distinct adjacent pair, and
// per-vertex triangle counts, all over the simple-graph skeleton.
func bruteLocals(g *graph.Graph) (sdeg []int64, pairs [][3]int64, tri []int64) {
	n := g.NumVertices()
	adj := make([]map[graph.VertexID]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[graph.VertexID]bool{}
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			adj[v][w] = true
		}
	}
	sdeg = make([]int64, n)
	tri = make([]int64, n)
	for v := 0; v < n; v++ {
		sdeg[v] = int64(len(adj[v]))
	}
	for u := 0; u < n; u++ {
		for w := range adj[u] {
			if int(w) <= u {
				continue
			}
			var c int64
			for x := range adj[u] {
				if adj[int(w)][x] {
					c++
				}
			}
			pairs = append(pairs, [3]int64{int64(u), int64(w), c})
			tri[u] += c
			tri[int(w)] += c
		}
	}
	for v := range tri {
		tri[v] /= 2
	}
	return sdeg, pairs, tri
}

// bruteFar lists, for every pair u < v of the simple-graph skeleton with a
// common neighbor, what the kernel's Far closures see: each end's count of
// distinct neighbors other than the other end, and the common neighbors.
func bruteFar(g *graph.Graph) (pairs [][3]int64) {
	n := g.NumVertices()
	adj := make([]map[graph.VertexID]bool, n)
	for v := range adj {
		adj[v] = map[graph.VertexID]bool{}
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			adj[v][w] = true
		}
	}
	for u := 0; u < n; u++ {
		common := map[graph.VertexID]int64{}
		for w := range adj[u] {
			for v := range adj[w] {
				if int(v) > u {
					common[v]++
				}
			}
		}
		for v, c := range common {
			var a int64
			if adj[u][v] {
				a = 1
			}
			pairs = append(pairs, [3]int64{int64(len(adj[u])) - a, int64(len(adj[v])) - a, c})
		}
	}
	return pairs
}

func localTestGraphs() []*graph.Graph {
	small := graph.NewBuilder("lc-hand")
	for i := 0; i < 6; i++ {
		small.AddVertex()
	}
	// Two triangles sharing vertex 0, a pendant at 5 — plus parallel edges
	// that the dedup must erase.
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}, {4, 5}, {0, 1}, {3, 4}} {
		small.MustAddEdge(e[0], e[1])
	}
	return []*graph.Graph{
		small.Build(),
		workload.ErdosRenyi("lc-er", 60, 220, 1, 41),
		workload.BarabasiAlbert("lc-ba", 80, 4, 1, 42),
		oracleMultigraph("lc-multi", 40, 160, 1, 43),
		fanGraph(),
	}
}

// fanGraph is pairs of hubs sharing 254, 255, 256 and 300 neighbors, the
// first and third pair adjacent, every fifth spoke doubled by a parallel
// edge to each hub: the distance-2 counters saturate at 255, so all but the
// first pair are recounted, and parallel edges must count once either way.
func fanGraph() *graph.Graph {
	b := graph.NewBuilder("lc-fan")
	for i, shared := range []int{254, 255, 256, 300} {
		h0, h1 := b.AddVertex(), b.AddVertex()
		if i%2 == 0 {
			b.MustAddEdge(h0, h1)
		}
		for s := 0; s < shared; s++ {
			w := b.AddVertex()
			b.MustAddEdge(h0, w)
			b.MustAddEdge(w, h1)
			if s%5 == 0 {
				b.MustAddEdge(h0, w)
				b.MustAddEdge(w, h1)
			}
		}
	}
	return b.Build()
}

func TestLocalCountsOracle(t *testing.T) {
	for _, g := range localTestGraphs() {
		sdeg, pairs, tri := bruteLocals(g)

		// Oracle sums for a representative basket of closures.
		var wantEdges, wantWedges, wantTriBase, wantStars, wantTriSum int64
		for _, p := range pairs {
			wantEdges++
			wantWedges += (sdeg[p[0]] - 1) * (sdeg[p[1]] - 1)
			wantTriBase += p[2]
		}
		for v := range sdeg {
			wantStars += sdeg[v] * (sdeg[v] - 1) / 2
			wantTriSum += tri[v]
		}

		terms := LocalTerms{
			Pair: []func(du, dv, c int64) int64{
				func(du, dv, c int64) int64 { return 1 },
				func(du, dv, c int64) int64 { return (du - 1) * (dv - 1) },
				func(du, dv, c int64) int64 { return c },
			},
			Vertex: []func(d, tri int64) int64{
				func(d, tri int64) int64 { return d * (d - 1) / 2 },
				func(d, tri int64) int64 { return tri },
			},
			NeedTri: true,
		}
		var wantFarC, wantFarDeg int64
		for _, p := range bruteFar(g) {
			wantFarC += p[2]
			wantFarDeg += p[0]*p[1]*p[2] + p[0] + p[1]
		}
		terms.Far = []func(du, dv, c int64) int64{
			func(du, dv, c int64) int64 { return c },
			func(du, dv, c int64) int64 { return du*dv*c + du + dv },
		}
		for _, cores := range []int{1, 3, 8} {
			pairSums, vertexSums, ops, err := LocalCounts(context.Background(), g, terms, cores)
			if err != nil {
				t.Fatalf("%s cores=%d: %v", g.Name(), cores, err)
			}
			if pairSums[0] != wantEdges || pairSums[1] != wantWedges || pairSums[2] != wantTriBase {
				t.Errorf("%s cores=%d pair sums: got %v, want [%d %d %d]",
					g.Name(), cores, pairSums, wantEdges, wantWedges, wantTriBase)
			}
			if want := []int64{wantStars, wantTriSum, wantFarC, wantFarDeg}; !slices.Equal(vertexSums, want) {
				t.Errorf("%s cores=%d vertex and far sums: got %v, want %v",
					g.Name(), cores, vertexSums, want)
			}
			if ops <= 0 {
				t.Errorf("%s cores=%d: ops=%d, want positive", g.Name(), cores, ops)
			}

			// Without a Vertex closure nothing reads tri(v): the sweep keeps
			// no triangle accumulators and the pair sums do not notice.
			pairOnly := LocalTerms{Pair: terms.Pair, NeedTri: true}
			gotPairs, gotVertex, _, err := LocalCounts(context.Background(), g, pairOnly, cores)
			if err != nil || len(gotVertex) != 0 || !slices.Equal(gotPairs, pairSums) {
				t.Errorf("%s cores=%d pair-only sweep: %v %v (%v), want %v", g.Name(), cores, gotPairs, gotVertex, err, pairSums)
			}
		}
	}
}

// TestLocalCountsScratch pins what the kernel keeps per vertex: a sweep over
// a 50 000-vertex graph allocates its sum vector and no more (it was an
// int32 degree per vertex, plus an int64 triangle accumulator per vertex and
// core when tri(v) had a reader) unless it carries a Far closure, whose
// distance-2 pass counts in one byte per vertex (a uint32 stamp before); and
// its sums are still the oracles' — with NoVertexTri too, whose Vertex
// closure sees 0.
func TestLocalCountsScratch(t *testing.T) {
	const n = 50_000
	g := workload.BarabasiAlbert("lc-scratch", n, 3, 1, 46)
	sdeg, pairs, tri := bruteLocals(g)
	var wantC, wantTri, wantWedges, wantFar int64
	for _, p := range pairs {
		wantC += p[2]
	}
	for _, p := range bruteFar(g) {
		wantFar += p[2] * (p[2] - 1)
	}
	for v := range sdeg {
		wantTri += tri[v]
		wantWedges += sdeg[v] * (sdeg[v] - 1) / 2
	}
	pair := []func(du, dv, c int64) int64{func(du, dv, c int64) int64 { return c }}
	vertex := []func(d, tri int64) int64{
		func(d, tri int64) int64 { return tri },
		func(d, tri int64) int64 { return d * (d - 1) / 2 },
	}
	far := []func(du, dv, c int64) int64{func(du, dv, c int64) int64 { return c * (c - 1) }}
	for _, c := range []struct {
		name  string
		terms LocalTerms
		want  []int64
		perV  uint64 // bytes per vertex allowed beside the sum vector
	}{
		{"pairs", LocalTerms{Pair: pair, NeedTri: true}, []int64{wantC}, 0},
		{"distance-2", LocalTerms{Pair: pair, Far: far, NeedTri: true, NoFarDegree: true}, []int64{wantC, wantFar}, 1},
		{"degrees", LocalTerms{Pair: pair, Vertex: vertex}, []int64{0, 0, wantWedges}, 0},
		{"triangles", LocalTerms{Pair: pair, Vertex: vertex, NeedTri: true}, []int64{wantC, wantTri, wantWedges}, 0},
		{"pair triangles", LocalTerms{Pair: pair, Vertex: vertex, NeedTri: true, NoVertexTri: true}, []int64{wantC, 0, wantWedges}, 0},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pairSums, vertexSums, _, err := LocalCounts(context.Background(), g, c.terms, 2)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		limit := 1024 + c.perV*n
		if c.perV > 0 {
			limit += 8 << 10 // the heap rounds a large block up to whole pages
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s: %d bytes allocated for %d vertices, want the sum vector and %d B per vertex", c.name, got, n, c.perV)
		}
		if got := slices.Concat(pairSums, vertexSums); !slices.Equal(got, c.want) {
			t.Errorf("%s: sums %v, want %v", c.name, got, c.want)
		}
	}
}

// BenchmarkLocalCountsFar is the distance-2 pass of a square sweep — one Far
// term, C(c, 2), no far degrees — on BA(120 000, 3), the shape of the
// repository benchmark's small_jobs_el graph, on two cores as the runtime
// runs it: each core with its own embedding, so its own counters, the roots
// dealt alternately. B/op is the cores' counters, one byte per vertex each.
func BenchmarkLocalCountsFar(b *testing.B) {
	g := workload.BarabasiAlbert("lc-far-bench", 120_000, 3, 1, 47)
	terms := LocalTerms{
		Far:         []func(du, dv, c int64) int64{func(du, dv, c int64) int64 { return c * (c - 1) / 2 }},
		NoFarDegree: true,
	}
	const cores = 2
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		var wg sync.WaitGroup
		for core := range cores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, sums := Embedding{g: g}, make([]int64, terms.Arity())
				for u := core; u < g.NumVertices(); u += cores {
					terms.At(&e, graph.VertexID(u), sums)
				}
			}()
		}
		wg.Wait()
	}
}

// TestLocalCountsDegreeOnly checks the cheap path: no common-neighbor sweep
// when nothing needs triangles.
func TestLocalCountsDegreeOnly(t *testing.T) {
	g := workload.BarabasiAlbert("lc-deg", 100, 3, 1, 44)
	sdeg, pairs, _ := bruteLocals(g)
	var wantEdges, wantStars int64
	for range pairs {
		wantEdges++
	}
	for v := range sdeg {
		wantStars += sdeg[v] * (sdeg[v] - 1) * (sdeg[v] - 2) / 6
	}
	terms := LocalTerms{
		Pair:   []func(du, dv, c int64) int64{func(du, dv, c int64) int64 { return 1 }},
		Vertex: []func(d, tri int64) int64{func(d, tri int64) int64 { return d * (d - 1) * (d - 2) / 6 }},
	}
	pairSums, vertexSums, opsCheap, err := LocalCounts(context.Background(), g, terms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pairSums[0] != wantEdges || vertexSums[0] != wantStars {
		t.Errorf("got %v %v, want [%d] [%d]", pairSums, vertexSums, wantEdges, wantStars)
	}
	terms.NeedTri = true
	_, _, opsTri, err := LocalCounts(context.Background(), g, terms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if opsCheap >= opsTri {
		t.Errorf("degree-only sweep ops=%d not below tri sweep ops=%d", opsCheap, opsTri)
	}
}

func TestLocalCountsCancellation(t *testing.T) {
	g := workload.BarabasiAlbert("lc-cancel", 2000, 8, 1, 45)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	terms := LocalTerms{
		Pair:    []func(du, dv, c int64) int64{func(du, dv, c int64) int64 { return c }},
		NeedTri: true,
	}
	if _, _, _, err := LocalCounts(ctx, g, terms, 4); err == nil {
		t.Error("cancelled context: expected error")
	}
}

func TestLocalCountsEmptyGraph(t *testing.T) {
	g := graph.NewBuilder("lc-empty").Build()
	terms := LocalTerms{
		Pair:    []func(du, dv, c int64) int64{func(du, dv, c int64) int64 { return 1 }},
		Vertex:  []func(d, tri int64) int64{func(d, tri int64) int64 { return 1 }},
		NeedTri: true,
	}
	pairSums, vertexSums, _, err := LocalCounts(context.Background(), g, terms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pairSums[0] != 0 || vertexSums[0] != 0 {
		t.Errorf("empty graph sums: %v %v", pairSums, vertexSums)
	}
}
