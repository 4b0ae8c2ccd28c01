package pattern

import (
	"math/rand"
	"testing"

	"fractal/internal/graph"
)

// simpleAdj is the simple-graph skeleton of g as adjacency sets: parallel
// edges collapse, as they do for every local the sweep reads.
func simpleAdj(g *graph.Graph) []map[int]bool {
	adj := make([]map[int]bool, g.NumVertices())
	for v := range adj {
		adj[v] = map[int]bool{}
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			adj[v][int(w)] = true
		}
	}
	return adj
}

// injectiveCount counts the injective maps of p's vertices into the graph
// that send every pattern edge onto a graph edge — |Aut(p)| times the
// non-induced copy count.
func injectiveCount(p *Pattern, adj []map[int]bool) int64 {
	n := p.NumVertices()
	img := make([]int, n)
	used := make([]bool, len(adj))
	var rec func(v int) int64
	rec = func(v int) int64 {
		if v == n {
			return 1
		}
		var s int64
		for w := range adj {
			if used[w] {
				continue
			}
			ok := true
			for u := 0; u < v && ok; u++ {
				ok = !p.HasEdge(u, v) || adj[img[u]][w]
			}
			if !ok {
				continue
			}
			img[v], used[w] = w, true
			s += rec(v + 1)
			used[w] = false
		}
		return s
	}
	return rec(0)
}

// termSums evaluates dp's terms over every binding of the skeleton the slow
// way: every vertex, every adjacent pair, every pair with a common neighbor.
func termSums(dp *DecompPlan, adj []map[int]bool) []int64 {
	n := len(adj)
	common := func(x, y int) (c int64) {
		for w := range adj[x] {
			if adj[y][w] {
				c++
			}
		}
		return c
	}
	sums := make([]int64, len(dp.Terms))
	for x := 0; x < n; x++ {
		dx := int64(len(adj[x]))
		var tri int64
		for y := range adj[x] {
			tri += common(x, y)
		}
		for y := x + 1; y < n; y++ {
			dy, c := int64(len(adj[y])), common(x, y)
			for i, t := range dp.Terms {
				switch {
				case t.Pair() && adj[x][y]:
					sums[i] += t.EvalPair(dx, dy, c)
				case t.Far() && adj[x][y]:
					sums[i] += t.EvalFar(dx-1, dy-1, c)
				case t.Far():
					sums[i] += t.EvalFar(dx, dy, c)
				}
			}
		}
		for i, t := range dp.Terms {
			if t.Cut == 1 {
				sums[i] += t.EvalVertex(dx, tri/2)
			}
		}
	}
	return sums
}

// TestCutRuleMatchesBruteForce holds every decomposition the rule accepts
// at k ≤ 6 to an injective-homomorphism count over random simple graphs and
// the skeleton of a random multigraph: Eval of the terms' sums must be the
// brute-force count divided by |Aut(P)|.
func TestCutRuleMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var graphs []*graph.Graph
	for _, sz := range []struct {
		n, m  int
		multi bool // sample edges with replacement: parallel edges occur
	}{{12, 30, false}, {14, 40, false}, {11, 60, true}} {
		b := graph.NewBuilder("cut-oracle")
		b.EnsureVertices(sz.n)
		seen := map[[2]int]bool{}
		for added := 0; added < sz.m; {
			u, v := rng.Intn(sz.n), rng.Intn(sz.n)
			if u >= v || seen[[2]int{u, v}] && !sz.multi {
				continue
			}
			seen[[2]int{u, v}] = true
			b.MustAddEdge(graph.VertexID(u), graph.VertexID(v))
			added++
		}
		graphs = append(graphs, b.Build())
	}
	accepted := 0
	for k := 1; k <= 6; k++ {
		pats, err := ConnectedPatterns(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pats {
			dp, err := Decompose(p)
			if err != nil {
				continue
			}
			accepted++
			for gi, g := range graphs {
				adj := simpleAdj(g)
				want := injectiveCount(p, adj) / int64(NumAutomorphisms(p))
				got, err := dp.Eval(termSums(dp, adj))
				if err != nil || got != want {
					t.Errorf("graph %d, %s of %v: got %d (%v), want %d\n%s", gi, dp.Rule, p, got, err, want, dp.Explain())
				}
			}
		}
	}
	t.Logf("%d patterns with k <= 6 decompose", accepted)
}
