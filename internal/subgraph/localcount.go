package subgraph

import (
	"context"
	"sync"
	"sync/atomic"

	"fractal/internal/agg"
	"fractal/internal/graph"
)

// Local-count kernels for the decomposition engine (DESIGN.md §14): one
// parallel pass over the CSR arrays computes, per vertex, the
// distinct-neighbor degree d(v) and triangle count tri(v), and, per distinct
// adjacent pair (u,v), the distinct common-neighbor count c(u,v) — the
// workhorse being the same sorted-intersection idiom as the extension
// kernels (intersectAdj), here counting instead of materializing. The
// polynomial terms of a DecompPlan are folded into running sums *during*
// the sweep, so no per-pair or per-vertex values are ever stored beyond an
// int32 degree per vertex and — only when a Vertex closure is there to read
// tri(v) — one int64 triangle accumulator per vertex and core.
//
// Multigraph correctness: Neighbors(v) contains one entry per incidence, so
// parallel edges appear as duplicate runs. Every loop below deduplicates
// runs, making all counts distinct-neighbor counts — the simple-graph
// skeleton the decomposition algebra is defined over (and what the plan
// engine's candidate sets enumerate on multigraphs).

// LocalTerms describes one sweep's work: Pair closures are evaluated once
// per distinct adjacent pair u<v with the endpoints' distinct-neighbor
// degrees and (when NeedTri) their distinct common-neighbor count; Vertex
// closures once per vertex with its degree and triangle count. NeedTri
// forces the sorted-intersection half of the sweep even when no Pair
// closure is present (Vertex closures reading tri(v) need it).
type LocalTerms struct {
	Pair    []func(du, dv, c int64) int64
	Vertex  []func(d, tri int64) int64
	NeedTri bool
}

// localBlock is the dynamic scheduling granule of the sweep: cores claim
// vertex blocks off an atomic counter, so degree skew (the reason static
// ranges underutilize on power-law graphs) self-balances.
const localBlock = 256

// LocalCounts runs the sweep over g with the given parallelism and returns
// the per-closure sums (index-aligned with t.Pair and t.Vertex) plus ops,
// the number of adjacency elements visited (the sweep's analog of the
// enumeration engines' extension cost, reported as EC). Per-core partial
// sums reduce through the aggregation pipeline (agg.Int64Sums under
// agg.MergeTree). Cancellation is honoured between blocks.
func LocalCounts(ctx context.Context, g *graph.Graph, t LocalTerms, cores int) (pairSums, vertexSums []int64, ops int64, err error) {
	if cores < 1 {
		cores = 1
	}
	n := g.NumVertices()
	arity := len(t.Pair) + len(t.Vertex)
	needPairs := len(t.Pair) > 0 || t.NeedTri
	keepTri := t.NeedTri && len(t.Vertex) > 0 // tri(v) has a reader

	// Phase 0: distinct-neighbor degrees (read by every later phase).
	sdeg := make([]int32, n)
	parallelBlocks(ctx, n, cores, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nb := g.Neighbors(graph.VertexID(v))
			var d int32
			for i := 0; i < len(nb); i++ {
				if i == 0 || nb[i] != nb[i-1] {
					d++
				}
			}
			sdeg[v] = d
		}
	})
	if err = ctx.Err(); err != nil {
		return nil, nil, 0, err
	}

	var tri []int64
	var opsTotal atomic.Int64
	stores := make([]agg.Store, cores)

	// Phase 1: pair sweep. Each core folds pair terms into its own
	// Int64Sums and accumulates triangle contributions into a private
	// array; c(u,v) adds to both endpoints, so tri(v) = Σ/2 after merge.
	if needPairs {
		triParts := make([][]int64, cores)
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < cores; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sums := agg.NewInt64Sums(arity)
				stores[c] = sums
				var triAcc []int64
				if keepTri {
					triAcc = make([]int64, n)
					triParts[c] = triAcc
				}
				var ops int64
				for {
					lo := int(next.Add(localBlock)) - localBlock
					if lo >= n || ctx.Err() != nil {
						break
					}
					hi := lo + localBlock
					if hi > n {
						hi = n
					}
					for u := lo; u < hi; u++ {
						nbu := g.Neighbors(graph.VertexID(u))
						du := int64(sdeg[u])
						for i := 0; i < len(nbu); i++ {
							v := nbu[i]
							if i > 0 && v == nbu[i-1] {
								continue // parallel edge
							}
							if int(v) <= u {
								continue // unordered pairs once
							}
							var cc int64
							if t.NeedTri {
								nbv := g.Neighbors(v)
								cc = distinctCommon(nbu, nbv)
								ops += int64(len(nbu) + len(nbv))
								if keepTri {
									triAcc[u] += cc
									triAcc[v] += cc
								}
							} else {
								ops++
							}
							for k, f := range t.Pair {
								sums.Sums[k] += f(du, int64(sdeg[v]), cc)
							}
						}
					}
				}
				opsTotal.Add(ops)
			}(c)
		}
		wg.Wait()
		if err = ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		if keepTri {
			tri = triParts[0]
			parallelBlocks(ctx, n, cores, func(lo, hi int) {
				for v := lo; v < hi; v++ {
					for c := 1; c < cores; c++ {
						tri[v] += triParts[c][v]
					}
					tri[v] /= 2
				}
			})
		}
	}

	// Phase 2: vertex terms, folded into the same per-core stores.
	if len(t.Vertex) > 0 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < cores; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sums, _ := stores[c].(*agg.Int64Sums)
				if sums == nil {
					sums = agg.NewInt64Sums(arity)
					stores[c] = sums
				}
				var ops int64
				for {
					lo := int(next.Add(localBlock)) - localBlock
					if lo >= n || ctx.Err() != nil {
						break
					}
					hi := lo + localBlock
					if hi > n {
						hi = n
					}
					for v := lo; v < hi; v++ {
						var tv int64
						if tri != nil {
							tv = tri[v]
						}
						for k, f := range t.Vertex {
							sums.Sums[len(t.Pair)+k] += f(int64(sdeg[v]), tv)
						}
					}
					ops += int64(hi - lo)
				}
				opsTotal.Add(ops)
			}(c)
		}
		wg.Wait()
	}
	if err = ctx.Err(); err != nil {
		return nil, nil, 0, err
	}

	merged, err := agg.MergeTree(stores, func() bool { return ctx.Err() != nil })
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, nil, 0, err
	}
	total := make([]int64, arity)
	if merged != nil {
		total = merged.(*agg.Int64Sums).Sums
	}
	return total[:len(t.Pair)], total[len(t.Pair):], opsTotal.Load(), nil
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

// parallelBlocks runs f over [0,n) split into contiguous ranges, one per
// core, and waits. Used for the uniform-cost phases where dynamic blocks
// buy nothing.
func parallelBlocks(ctx context.Context, n, cores int, f func(lo, hi int)) {
	if ctx.Err() != nil || n == 0 {
		return
	}
	if cores > n {
		cores = n
	}
	var wg sync.WaitGroup
	per := (n + cores - 1) / cores
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
