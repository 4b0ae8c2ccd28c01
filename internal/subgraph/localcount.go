package subgraph

import (
	"context"
	"math"
	"slices"

	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// The local-count kernel of the decomposition engine (DESIGN.md §14): per
// root vertex u, the distinct-neighbor degree d(u), the per-vertex triangle
// count tri(u), per distinct neighbor v > u the pair's distinct-neighbor
// degree d(v) and distinct common-neighbor count c(u,v) — the workhorse
// being the same sorted-intersection idiom as graph.IntersectSorted, here
// counting instead of materializing — and, when a
// sweep carries terms over pattern non-edges, c(u,v) for every v > u two
// hops away, counted in one byte per vertex that saturates at 255. The
// terms of a sweep's DecompPlans are folded into running sums as the kernel
// goes. The runtime runs it as one fractal step, one root vertex per
// subgraph (the decomposition sweep of fractal.Graph.EvalDecomps);
// LocalCounts runs it over every vertex on the caller's goroutine.
//
// Multigraph correctness: Neighbors(v) contains one entry per incidence, so
// parallel edges appear as duplicate runs. Every loop below deduplicates
// runs, making all counts distinct-neighbor counts — the simple-graph
// skeleton the decomposition algebra is defined over (and what the plan
// engine's candidate sets enumerate on multigraphs).

// LocalTerms describes one sweep's work: Pair closures are evaluated once
// per distinct adjacent pair u<v with the endpoints' distinct-neighbor
// degrees and (when NeedTri) their distinct common-neighbor count; Vertex
// closures once per vertex with its degree and (when NeedTri, unless
// NoVertexTri) its triangle count; Far closures once per pair u<v with a
// common neighbor, adjacent or not, with each end's count of distinct
// neighbors other than the other end and the pair's common-neighbor count.
// NeedTri forces the sorted-intersection half of the kernel even when no
// Pair closure is present (Vertex closures reading tri(v) need it).
type LocalTerms struct {
	Pair   []func(du, dv, c int64) int64
	Vertex []func(d, tri int64) int64
	Far    []func(du, dv, c int64) int64
	// NeedTri makes the kernel count common neighbors of adjacent pairs.
	NeedTri bool
	// NoVertexTri says no Vertex closure reads tri(v) (they see 0): only the
	// Pair closures need NeedTri's counts. tri(u) is the one local that
	// intersects u with every neighbor, not only the larger ones, so this
	// halves the intersections of a sweep whose triangles feed Pair terms
	// alone.
	NoVertexTri bool
	// NoFarDegree says no Far closure reads the far end's own neighbors (it
	// sees a degree of c: none beside u and the common ones). The distance-2
	// pass then reads no list beyond the walk's — a third of the time of a
	// square sweep on a sparse BA(120 000, 3), which reads ten times fewer
	// elements.
	NoFarDegree bool
}

// Arity is the length of the sum vector At folds into: the Pair closures'
// sums, then the Vertex closures', then the Far closures'.
func (t *LocalTerms) Arity() int { return len(t.Pair) + len(t.Vertex) + len(t.Far) }

// At folds root vertex u's terms into sums (Arity long): every Pair closure
// once per distinct neighbor v > u, every Vertex closure once, every Far
// closure once per v > u with a common neighbor. e supplies the graph and,
// for Far closures only, its distance-2 counters. It returns the adjacency
// elements it read — u's list for d(u), a neighbor's list for d(v), both
// lists of an intersection or a recount, every list of the two-hop walk —
// the kernel's analog of the enumeration engines' extension tests.
//
// tri(u) needs c(u,v) for every neighbor v, so when a Vertex closure reads
// it each adjacent pair is intersected from both ends: a per-root kernel
// keeps no per-vertex accumulator another root could add to.
func (t *LocalTerms) At(e *Embedding, u graph.VertexID, sums []int64) (ops int64) {
	g := e.g
	nbu := g.Neighbors(u)
	du := distinctLen(nbu)
	ops = int64(len(nbu))
	wantTri := t.NeedTri && !t.NoVertexTri && len(t.Vertex) > 0
	var tri int64
	if len(t.Pair) > 0 || wantTri {
		from := 0
		if !wantTri { // only the pairs u < v, a suffix of the sorted list
			from, _ = slices.BinarySearch(nbu, u+1)
		}
		for i := from; i < len(nbu); i++ {
			v := nbu[i]
			if i > 0 && v == nbu[i-1] {
				continue // parallel edge
			}
			nbv := g.Neighbors(v)
			pair := v > u && len(t.Pair) > 0
			var c, dv int64
			switch {
			case t.NeedTri && pair:
				c, dv = commonAndDistinct(nbu, nbv)
				ops += int64(len(nbu) + len(nbv))
			case t.NeedTri:
				c = distinctCommon(nbu, nbv)
				ops += int64(len(nbu) + len(nbv))
			default:
				dv = distinctLen(nbv)
				ops += int64(len(nbv))
			}
			if wantTri {
				tri += c
			}
			if pair {
				for k, f := range t.Pair {
					sums[k] = pattern.AddSat(sums[k], f(du, dv, c))
				}
			}
		}
	}
	for k, f := range t.Vertex {
		// Each triangle at u is seen from both of its other corners.
		sums[len(t.Pair)+k] = pattern.AddSat(sums[len(t.Pair)+k], f(du, tri/2))
	}
	if len(t.Far) > 0 && du > 0 {
		ops += t.far(e, u, nbu, du, sums[len(t.Pair)+len(t.Vertex):])
	}
	return ops
}

// far is At's distance-2 pass. A walk over the lists of u's neighbors
// counts, for every v > u it reaches, the distinct common neighbors in
// e.common, which stops at 255; a second walk, u's own list first so that
// adjacency is known, evaluates each counted v once and zeroes its counter.
// A saturated pair is recounted exactly by a merge of the two lists.
func (t *LocalTerms) far(e *Embedding, u graph.VertexID, nbu []graph.VertexID, du int64, sums []int64) (ops int64) {
	g := e.g
	if len(e.common) < g.NumVertices() {
		e.common = make([]uint8, g.NumVertices())
	}
	count := e.common
	walk := func(visit func(v graph.VertexID)) {
		for i, w := range nbu {
			if i > 0 && w == nbu[i-1] {
				continue
			}
			nbw := g.Neighbors(w)
			from, _ := slices.BinarySearch(nbw, u+1)
			ops += int64(len(nbw) - from)
			for j := from; j < len(nbw); j++ {
				if j == from || nbw[j] != nbw[j-1] {
					visit(nbw[j])
				}
			}
		}
	}
	walk(func(v graph.VertexID) {
		if count[v] < math.MaxUint8 {
			count[v]++
		}
	})
	eval := func(v graph.VertexID, adj int64) {
		c := int64(count[v])
		if c == 0 {
			return
		}
		count[v] = 0
		if c == math.MaxUint8 {
			nbv := g.Neighbors(v)
			ops += int64(len(nbu) + len(nbv))
			c = distinctCommon(nbu, nbv)
		}
		dv := c + adj
		if !t.NoFarDegree {
			nbv := g.Neighbors(v)
			ops += int64(len(nbv))
			dv = distinctLen(nbv)
		}
		for k, f := range t.Far {
			sums[k] = pattern.AddSat(sums[k], f(du-adj, dv-adj, c))
		}
	}
	from, _ := slices.BinarySearch(nbu, u+1)
	for _, v := range nbu[from:] {
		eval(v, 1)
	}
	walk(func(v graph.VertexID) { eval(v, 0) })
	return ops
}

// localBlock is how many root vertices LocalCounts runs between
// cancellation checks.
const localBlock = 256

// LocalCounts runs the kernel over every vertex of g on the caller's
// goroutine and returns the per-closure sums — pairSums index-aligned with
// t.Pair, vertexSums with t.Vertex followed by t.Far — plus ops, the
// adjacency elements read (At). Cancellation is honoured every localBlock
// vertices. cores is ignored: the parallel sweep is the runtime's step
// (fractal.Graph.EvalDecomps), where the same kernel runs on every core with
// work stealing.
func LocalCounts(ctx context.Context, g *graph.Graph, t LocalTerms, cores int) (pairSums, vertexSums []int64, ops int64, err error) {
	sums := make([]int64, t.Arity())
	e := Embedding{g: g}
	for u := 0; u < g.NumVertices(); u++ {
		if u%localBlock == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, 0, err
			}
		}
		ops += t.At(&e, graph.VertexID(u), sums)
	}
	return sums[:len(t.Pair)], sums[len(t.Pair):], ops, nil
}

// distinctLen counts the distinct values of a sorted multiset.
func distinctLen(a []graph.VertexID) int64 {
	var d int64
	for i := range a {
		if i == 0 || a[i] != a[i-1] {
			d++
		}
	}
	return d
}

// commonAndDistinct is distinctCommon and distinctLen(b) in one merge,
// driven by b: both lists are read once, b to its end.
func commonAndDistinct(a, b []graph.VertexID) (common, distinctB int64) {
	i := 0
	for j, bv := range b {
		if j > 0 && bv == b[j-1] {
			continue
		}
		distinctB++
		for i < len(a) && a[i] < bv {
			i++
		}
		if i < len(a) && a[i] == bv {
			common++
		}
	}
	return common, distinctB
}

// distinctCommon counts the distinct values present in both sorted
// multisets (the neighbor lists of two adjacent vertices; the shared values
// are their common neighbors, each counted once regardless of parallel
// edges).
func distinctCommon(a, b []graph.VertexID) int64 {
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch av, bv := a[i], b[j]; {
		case av < bv:
			i++
		case av > bv:
			j++
		default:
			c++
			for i++; i < len(a) && a[i] == av; i++ {
			}
			for j++; j < len(b) && b[j] == bv; j++ {
			}
		}
	}
	return c
}
