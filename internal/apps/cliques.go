package apps

import (
	"context"
	"math"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/subgraph"
)

// Cliques counts the k-cliques of g (Listing 2 of the paper on the
// compiled-plan engine): the query spec with the Clique(k) plan, whose
// symmetry-breaking restrictions enumerate each clique exactly once, with
// no clique filter and no canonical check. A clique has no non-adjacent
// vertex pair, so the edge-matching (non-induced) plan suffices.
func Cliques(ctx context.Context, fc *fractal.Context, g *fractal.Graph, k int) (int64, *fractal.Result, error) {
	d, err := DecideCliques(k)
	if err != nil {
		return 0, nil, err
	}
	return countOne(ctx, g, d)
}

// Triangles counts 3-cliques (the Appendix C benchmark: the same listing
// with k = 3).
func Triangles(ctx context.Context, fc *fractal.Context, g *fractal.Graph) (int64, *fractal.Result, error) {
	return Cliques(ctx, fc, g, 3)
}

// KClistEnum is the custom subgraph enumerator of Listing 6: an
// implementation of the KClist algorithm (Danisch et al., WWW'18). The
// input graph is oriented along a degeneracy ordering, so every vertex has
// at most degeneracy(G) out-neighbors; the state per enumeration level is
// the candidate set that extends the current clique — the common
// out-neighborhood of all clique members — so extension candidates need no
// canonical check and no clique filter.
type KClistEnum struct {
	g     *graph.Graph
	cores *graph.CoreDecomposition
	// cands[i] is the candidate set after the embedding's (i+1)-th vertex,
	// sorted by vertex id. The levels past the embedding's depth keep their
	// buffers for reuse.
	cands [][]graph.VertexID
}

// NewKClistEnum returns the enumerator prototype to pass to
// Graph.VFractoidWith (Listing 7).
func NewKClistEnum() *KClistEnum { return &KClistEnum{} }

// Clone implements subgraph.CustomExtender.
func (x *KClistEnum) Clone() subgraph.CustomExtender { return &KClistEnum{} }

// Reset implements subgraph.CustomExtender: compute the degeneracy DAG.
func (x *KClistEnum) Reset(g *graph.Graph) {
	x.g = g
	x.cores = graph.Cores(g)
}

// Extensions implements subgraph.CustomExtender: the candidates were
// precomputed when the last vertex was pushed.
func (x *KClistEnum) Extensions(e *subgraph.Embedding, dst []subgraph.Word) ([]subgraph.Word, int) {
	top := x.cands[e.Len()-1]
	for _, u := range top {
		dst = append(dst, subgraph.Word(u))
	}
	return dst, len(top)
}

// Pushed implements subgraph.CustomExtender: intersect the previous
// candidate set with the neighbours of the new vertex and keep those later
// in the degeneracy order — its out-neighbourhood in the degeneracy DAG,
// the per-level state of Listing 6. Each clique is produced exactly once,
// in increasing degeneracy rank.
func (x *KClistEnum) Pushed(e *subgraph.Embedding, w subgraph.Word) {
	v, level := graph.VertexID(w), e.Len()-1
	if level == len(x.cands) {
		x.cands = append(x.cands, nil)
	}
	buf := x.cands[level][:0]
	cands := x.g.Neighbors(v)
	if level > 0 {
		buf = graph.IntersectSorted(x.cands[level-1], cands, buf)
		cands = buf
	}
	// Filtered in place; at the root, parallel edges repeat a neighbour as a
	// run, and only its first copy is kept.
	rank, out := x.cores.Rank, buf[:0]
	for _, u := range cands {
		if rank[u] > rank[v] && (len(out) == 0 || out[len(out)-1] != u) {
			out = append(out, u)
		}
	}
	x.cands[level] = out
}

// Popped implements subgraph.CustomExtender: the level's buffer stays for
// the next push at that depth.
func (x *KClistEnum) Popped(e *subgraph.Embedding) {}

// CliquesKClist counts k-cliques with the optimized custom enumerator
// (Listing 7 of the paper):
//
//	graph.vfractoid(new KClistEnum(...)).expand(1).explore(k).subgraphs()
//
// The enumerator is a closure with per-core state, so this runs on
// in-process contexts only. It needs no plan, so k has no upper bound; a k
// below 1 is an *ArgError.
func CliquesKClist(ctx context.Context, fc *fractal.Context, g *fractal.Graph, k int) (int64, *fractal.Result, error) {
	if k < 1 {
		return 0, nil, &ArgError{Arg: `cliques argument "k"`, Got: k, Min: 1, Max: math.MaxInt}
	}
	return g.VFractoidWith(NewKClistEnum()).Expand(1).Explore(k).CountCtx(ctx)
}
