package apps

import (
	"context"
	"sort"
	"sync"

	"fractal"
	"fractal/internal/graph"
)

// Clique percolation (Derényi, Palla & Vicsek — cited by the paper's
// introduction as a GPM-driven community discovery method): two k-cliques
// are adjacent when they share k-1 vertices, and a community is a connected
// component of the clique adjacency graph. The clique enumeration runs on
// the Fractal runtime (the KClist enumerator); percolation is a union-find
// pass over the streamed cliques.

// Community is one k-clique community: a sorted set of graph vertices.
type Community []graph.VertexID

// CliqueCommunities returns the k-clique percolation communities of g,
// sorted by decreasing size (ties by first vertex).
func CliqueCommunities(ctx context.Context, fc *fractal.Context, g *fractal.Graph, k int) ([]Community, *fractal.Result, error) {
	var (
		mu      sync.Mutex
		cliques [][]graph.VertexID
	)
	res, err := g.VFractoidWith(NewKClistEnum()).Expand(1).Explore(k).
		SubgraphsCtx(ctx, func(e *fractal.Subgraph) {
			vs := append([]graph.VertexID(nil), e.Vertices()...)
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
			mu.Lock()
			cliques = append(cliques, vs)
			mu.Unlock()
		})
	if err != nil {
		return nil, nil, err
	}
	// Percolate: union cliques sharing a (k-1)-subset. Index cliques by
	// each of their k facets.
	uf := newUnionFind(len(cliques))
	facetOwner := map[string]int{}
	var key []byte
	for ci, vs := range cliques {
		for skip := 0; skip < len(vs); skip++ {
			key = key[:0]
			for i, v := range vs {
				if i == skip {
					continue
				}
				key = append(key, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
			}
			fk := string(key)
			if other, ok := facetOwner[fk]; ok {
				uf.union(ci, other)
			} else {
				facetOwner[fk] = ci
			}
		}
	}
	groups := map[int]map[graph.VertexID]struct{}{}
	for ci, vs := range cliques {
		root := uf.find(ci)
		set := groups[root]
		if set == nil {
			set = map[graph.VertexID]struct{}{}
			groups[root] = set
		}
		for _, v := range vs {
			set[v] = struct{}{}
		}
	}
	out := make([]Community, 0, len(groups))
	for _, set := range groups {
		c := make(Community, 0, len(set))
		for v := range set {
			c = append(c, v)
		}
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out, res, nil
}

// unionFind is a standard DSU with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
