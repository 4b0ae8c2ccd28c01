package apps

import (
	"context"
	"sort"
	"strconv"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/sched"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// cliquesBuilder is the k-clique counting kernel (Listing 2 of the paper on
// the compiled-plan engine): a single pattern-induced job over the
// Clique(k) plan, whose symmetry-breaking restrictions enumerate each clique
// exactly once (v0 < v1 < … < vk-1), with no clique filter and no canonical
// check. A clique has no non-adjacent vertex pair, so the edge-matching
// (non-induced) plan suffices. Args: "k".
type cliquesBuilder struct{}

func (cliquesBuilder) EnvProtos(fractal.JobSpec) (map[string]agg.Store, error) {
	return nil, nil
}

func (cliquesBuilder) Build(spec fractal.JobSpec, g *graph.Graph, _ *agg.Registry) (sched.Job, error) {
	// Compiling the Clique(k) plan takes k!-fold time (9 ms at 8, 1 s at
	// 10), so k stops where the generated pattern sets do.
	k, err := specInt(spec, "k", 1, pattern.MaxGenVertices)
	if err != nil {
		return sched.Job{}, err
	}
	plan, err := fractal.CompilePlan(pattern.Clique(k))
	if err != nil {
		return sched.Job{}, err
	}
	return countJob(fractal.NewBuildGraph(g).PFractoidPlan(plan).Expand(k))
}

// Cliques counts the k-cliques of g.
func Cliques(ctx context.Context, fc *fractal.Context, g *fractal.Graph, k int) (int64, *fractal.Result, error) {
	res, err := g.RunSpec(ctx, AppCliques, map[string]string{"k": strconv.Itoa(k)}, nil)
	if err != nil {
		return 0, res, err
	}
	return step.CountOf(res.Aggregations), res, nil
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
	cands [][]subgraph.Word
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
	x.cands = x.cands[:0]
}

// after reports whether u follows v in the degeneracy order.
func (x *KClistEnum) after(u, v graph.VertexID) bool {
	return x.cores.Rank[u] > x.cores.Rank[v]
}

// Extensions implements subgraph.CustomExtender: the candidates were
// precomputed when the last vertex was pushed.
func (x *KClistEnum) Extensions(e *subgraph.Embedding, dst []subgraph.Word) ([]subgraph.Word, int) {
	top := x.cands[len(x.cands)-1]
	return append(dst, top...), len(top)
}

// Pushed implements subgraph.CustomExtender: intersect the previous
// candidate set with the out-neighborhood (degeneracy DAG) of the new
// vertex — the per-level DAG state of Listing 6. Each clique is produced
// exactly once, in increasing degeneracy rank.
func (x *KClistEnum) Pushed(e *subgraph.Embedding, w subgraph.Word) {
	v := graph.VertexID(w)
	var next []subgraph.Word
	if len(x.cands) == 0 {
		for _, u := range x.g.Neighbors(v) {
			if x.after(u, v) {
				next = append(next, subgraph.Word(u))
			}
		}
	} else {
		for _, c := range x.cands[len(x.cands)-1] {
			u := graph.VertexID(c)
			if x.after(u, v) && x.g.HasEdge(v, u) {
				next = append(next, c)
			}
		}
	}
	x.cands = append(x.cands, dedupWords(next))
}

// Popped implements subgraph.CustomExtender.
func (x *KClistEnum) Popped(e *subgraph.Embedding) {
	x.cands = x.cands[:len(x.cands)-1]
}

// CliquesKClist counts k-cliques with the optimized custom enumerator
// (Listing 7 of the paper):
//
//	graph.vfractoid(new KClistEnum(...)).expand(1).explore(k).subgraphs()
//
// The enumerator is a closure with per-core state, so this runs on
// in-process contexts only.
func CliquesKClist(ctx context.Context, fc *fractal.Context, g *fractal.Graph, k int) (int64, *fractal.Result, error) {
	return g.VFractoidWith(NewKClistEnum()).Expand(1).Explore(k).CountCtx(ctx)
}

// dedupWords removes duplicates from a sorted-ish candidate list (parallel
// edges can repeat a neighbor).
func dedupWords(ws []subgraph.Word) []subgraph.Word {
	if len(ws) < 2 {
		return ws
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	out := ws[:1]
	for _, w := range ws[1:] {
		if w != out[len(out)-1] {
			out = append(out, w)
		}
	}
	return out
}
