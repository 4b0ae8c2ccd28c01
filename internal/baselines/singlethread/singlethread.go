// Package singlethread implements the efficient single-threaded baselines
// of the paper's COST analysis (Section 5.2.4, Figure 18, Figure 20b):
// a Gtries-style motif counter (ESU enumeration with a canonical-form
// cache), a KClist clique lister (Danisch et al., WWW'18), a sorted-
// adjacency triangle counter (the Neo4j stand-in), a Grami-style FSM miner,
// and a direct pattern matcher. They avoid every runtime overhead —
// no goroutines, no atomics, no message passing — so they are honest
// comparators for "how many cores does the system need to win".
package singlethread

import (
	"sort"
	"time"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"
)

// Result carries a baseline measurement.
type Result struct {
	Count int64
	Wall  time.Duration
}

// Motifs counts k-vertex motif frequencies with the ESU (FANMOD)
// enumeration algorithm: each connected induced k-subgraph is visited
// exactly once, then classified through a canonical-form cache — the
// Gtries-equivalent baseline.
func Motifs(g *graph.Graph, k int) (map[string]int64, Result) {
	start := time.Now()
	counts := map[string]int64{}
	codes := map[string]string{} // fingerprint -> canonical code
	n := g.NumVertices()

	sub := make([]graph.VertexID, 0, k)
	inSub := make([]bool, n)
	inExt := make([]bool, n)

	var classify func()
	classify = func() {
		p := pattern.FromEmbedding(g, sub, nil)
		fp := p.Fingerprint()
		code, ok := codes[fp]
		if !ok {
			code = p.Canonical().Code
			codes[fp] = code
		}
		counts[code]++
	}

	var extend func(v graph.VertexID, ext []graph.VertexID)
	extend = func(root graph.VertexID, ext []graph.VertexID) {
		if len(sub) == k {
			classify()
			return
		}
		for i := 0; i < len(ext); i++ {
			w := ext[i]
			// Exclusive neighborhood of w: neighbors greater than the
			// root, not in the subgraph, not already in the extension set.
			newExt := append([]graph.VertexID(nil), ext[i+1:]...)
			var added []graph.VertexID
			for _, u := range g.Neighbors(w) {
				if u > root && !inSub[u] && !inExt[u] && !neighborOfSub(g, u, sub) {
					newExt = append(newExt, u)
					added = append(added, u)
					inExt[u] = true
				}
			}
			sub = append(sub, w)
			inSub[w] = true
			extend(root, newExt)
			inSub[w] = false
			sub = sub[:len(sub)-1]
			for _, u := range added {
				inExt[u] = false
			}
		}
	}

	for v := 0; v < n; v++ {
		root := graph.VertexID(v)
		var ext []graph.VertexID
		for _, u := range g.Neighbors(root) {
			if u > root {
				ext = append(ext, u)
				inExt[u] = true
			}
		}
		sub = append(sub[:0], root)
		inSub[root] = true
		extend(root, ext)
		inSub[root] = false
		for _, u := range ext {
			inExt[u] = false
		}
	}

	var total int64
	for _, c := range counts {
		total += c
	}
	return counts, Result{Count: total, Wall: time.Since(start)}
}

func neighborOfSub(g *graph.Graph, u graph.VertexID, sub []graph.VertexID) bool {
	for _, s := range sub {
		if g.HasEdge(u, s) {
			return true
		}
	}
	return false
}

// Cliques counts k-cliques with the KClist algorithm: a DAG orientation by
// vertex ID, recursing on common out-neighborhoods.
func Cliques(g *graph.Graph, k int) Result {
	start := time.Now()
	n := g.NumVertices()
	// out[v] = sorted neighbors greater than v.
	out := make([][]graph.VertexID, n)
	for v := 0; v < n; v++ {
		vv := graph.VertexID(v)
		nb := g.Neighbors(vv)
		i := sort.Search(len(nb), func(i int) bool { return nb[i] > vv })
		run := nb[i:]
		o := make([]graph.VertexID, 0, len(run))
		for _, u := range run {
			if len(o) == 0 || o[len(o)-1] != u { // parallel edges
				o = append(o, u)
			}
		}
		out[v] = o
	}
	var count int64
	var rec func(cands []graph.VertexID, depth int)
	rec = func(cands []graph.VertexID, depth int) {
		if depth == k {
			count++
			return
		}
		if k-depth > len(cands) {
			return
		}
		for i, v := range cands {
			if depth == k-1 {
				count++
				continue
			}
			next := intersectSorted(cands[i+1:], out[v])
			rec(next, depth+1)
		}
	}
	for v := 0; v < n; v++ {
		if k == 1 {
			count++
			continue
		}
		rec(out[v], 1)
	}
	return Result{Count: count, Wall: time.Since(start)}
}

// intersectSorted intersects two ascending vertex slices.
func intersectSorted(a, b []graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Triangles counts triangles by sorted-adjacency intersection (the strong
// Neo4j-style single-thread baseline of Appendix C).
func Triangles(g *graph.Graph) Result {
	start := time.Now()
	var count int64
	n := g.NumVertices()
	out := make([][]graph.VertexID, n)
	for v := 0; v < n; v++ {
		vv := graph.VertexID(v)
		nb := g.Neighbors(vv)
		i := sort.Search(len(nb), func(i int) bool { return nb[i] > vv })
		o := make([]graph.VertexID, 0, len(nb)-i)
		for _, u := range nb[i:] {
			if len(o) == 0 || o[len(o)-1] != u {
				o = append(o, u)
			}
		}
		out[v] = o
	}
	for v := 0; v < n; v++ {
		for _, u := range out[v] {
			count += int64(len(intersectSorted(out[v], out[u])))
		}
	}
	return Result{Count: count, Wall: time.Since(start)}
}

// Query counts matches of pattern p with a direct backtracking matcher
// using the same matching plan as Fractal's pattern-induced extension, but
// with zero runtime overhead.
func Query(g *graph.Graph, p *pattern.Pattern) (Result, error) {
	start := time.Now()
	plan, err := pattern.NewPlan(p)
	if err != nil {
		return Result{}, err
	}
	var count int64
	n := p.NumVertices()
	bound := make([]graph.VertexID, 0, n)
	used := make(map[graph.VertexID]bool, n)

	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			count++
			return
		}
		back := plan.Back[pos]
		anchor := back[0]
		for _, b := range back[1:] {
			if g.Degree(bound[b.Pos]) < g.Degree(bound[anchor.Pos]) {
				anchor = b
			}
		}
		want := plan.VLabels[pos]
		for _, u := range g.Neighbors(bound[anchor.Pos]) {
			if used[u] {
				continue
			}
			if want != pattern.NoLabel && !graph.ContainsLabel(g.VertexLabels(u), want) {
				continue
			}
			if !edgeOK(g, u, bound[anchor.Pos], anchor.ELabel) {
				continue
			}
			ok := true
			for _, b := range back {
				if b == anchor {
					continue
				}
				if !edgeOK(g, u, bound[b.Pos], b.ELabel) {
					ok = false
					break
				}
			}
			if !ok || !plan.CheckBinding(pos, u, bound) {
				continue
			}
			bound = append(bound, u)
			used[u] = true
			rec(pos + 1)
			used[u] = false
			bound = bound[:len(bound)-1]
		}
	}

	want0 := plan.VLabels[0]
	for v := 0; v < g.NumVertices(); v++ {
		vv := graph.VertexID(v)
		if want0 != pattern.NoLabel && !graph.ContainsLabel(g.VertexLabels(vv), want0) {
			continue
		}
		bound = append(bound[:0], vv)
		used[vv] = true
		rec(1)
		used[vv] = false
	}
	return Result{Count: count, Wall: time.Since(start)}, nil
}

func edgeOK(g *graph.Graph, u, v graph.VertexID, want graph.Label) bool {
	if want == pattern.NoLabel {
		return g.HasEdge(u, v)
	}
	var ids []graph.EdgeID
	ids = g.EdgesBetween(u, v, ids)
	for _, id := range ids {
		if g.EdgeLabel(id) == want {
			return true
		}
	}
	return false
}

// FSM mines frequent patterns single-threadedly (the Grami stand-in):
// edge-by-edge growth with MNI support, expanding only embeddings of
// patterns frequent at the previous level.
func FSM(g *graph.Graph, minSupport int64, maxEdges int) (map[string]*agg.DomainSupport, Result) {
	start := time.Now()
	frequent := map[string]*agg.DomainSupport{}

	emb := subgraph.New(g, subgraph.EdgeInduced, nil)
	var buf []subgraph.Word

	frontier := make([][]subgraph.Word, 0, g.NumEdges())
	for w := subgraph.Word(0); int(w) < g.NumEdges(); w++ {
		frontier = append(frontier, []subgraph.Word{w})
	}
	for level := 1; level <= maxEdges && len(frontier) > 0; level++ {
		supports := map[string]*agg.DomainSupport{}
		for _, words := range frontier {
			emb.Replay(words)
			cl := emb.Class()
			ds := agg.NewDomainSupport(cl.Rep, minSupport, emb.Vertices(), cl.Perm)
			supports[cl.Code] = supports[cl.Code].Aggregate(ds)
		}
		levelFrequent := map[string]bool{}
		for code, ds := range supports {
			if ds.HasEnoughSupport() {
				levelFrequent[code] = true
				frequent[code] = ds
			}
		}
		if len(levelFrequent) == 0 || level == maxEdges {
			break
		}
		var next [][]subgraph.Word
		for _, words := range frontier {
			emb.Replay(words)
			if !levelFrequent[emb.Class().Code] {
				continue
			}
			buf, _ = emb.Extensions(buf[:0])
			for _, w := range buf {
				nw := make([]subgraph.Word, len(words)+1)
				copy(nw, words)
				nw[len(words)] = w
				next = append(next, nw)
			}
		}
		frontier = next
	}
	return frequent, Result{Count: int64(len(frequent)), Wall: time.Since(start)}
}
