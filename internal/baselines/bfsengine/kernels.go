package bfsengine

import (
	"sync"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/metrics"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"
)

// This file provides the Arabesque-equivalent application kernels the
// benchmark harness compares Fractal against: motifs, cliques, triangles,
// subgraph querying, and FSM — all BFS-materialized.

// Cliques counts k-cliques (BFS-materialized).
func Cliques(g *graph.Graph, k, cores int, budget int64) (*Result, error) {
	return Run(g, subgraph.VertexInduced, nil, k,
		Config{Cores: cores, MemoryBudget: budget, Filter: subgraph.IsClique})
}

// Triangles counts 3-cliques.
func Triangles(g *graph.Graph, cores int, budget int64) (*Result, error) {
	return Cliques(g, 3, cores, budget)
}

// Motifs counts k-vertex motif frequencies (BFS-materialized, with pattern
// aggregation at the final superstep).
func Motifs(g *graph.Graph, k, cores int, budget int64) (map[string]int64, *Result, error) {
	var mu sync.Mutex
	counts := map[string]int64{}
	res, err := RunVisit(g, subgraph.VertexInduced, nil, k,
		Config{Cores: cores, MemoryBudget: budget},
		func(e *subgraph.Embedding) {
			code := e.Class().Code
			mu.Lock()
			counts[code]++
			mu.Unlock()
		})
	if err != nil {
		return nil, nil, err
	}
	return counts, res, nil
}

// Query counts the matches of pattern p (BFS-materialized pattern-induced
// enumeration).
func Query(g *graph.Graph, p *pattern.Pattern, cores int, budget int64) (*Result, error) {
	plan, err := pattern.NewPlan(p)
	if err != nil {
		return nil, err
	}
	return Run(g, subgraph.PatternInduced, plan, p.NumVertices(),
		Config{Cores: cores, MemoryBudget: budget})
}

// FSMResult reports a BFS FSM run.
type FSMResult struct {
	// Frequent maps pattern codes to supports across all levels.
	Frequent map[string]*agg.DomainSupport
	// PerLevel counts frequent patterns per edge count.
	PerLevel []int
	// PeakStateBytes is the peak materialized frontier.
	PeakStateBytes int64
}

// FSM mines frequent patterns level-synchronously: each level materializes
// the full frontier of embeddings whose every prefix pattern was frequent,
// then aggregates supports with a barrier. This is the Arabesque FSM whose
// frontier state grows with the pattern count (Figure 13).
func FSM(g *graph.Graph, minSupport int64, maxEdges, cores int, budget int64) (*FSMResult, error) {
	if cores <= 0 {
		cores = 1
	}
	out := &FSMResult{Frequent: map[string]*agg.DomainSupport{}}

	emb := subgraph.New(g, subgraph.EdgeInduced, nil)
	frontier := make([][]subgraph.Word, 0, g.NumEdges())
	for w := subgraph.Word(0); int(w) < g.NumEdges(); w++ {
		frontier = append(frontier, []subgraph.Word{w})
	}

	for level := 1; level <= maxEdges && len(frontier) > 0; level++ {
		// Aggregate supports of the frontier.
		supports := map[string]*agg.DomainSupport{}
		for _, words := range frontier {
			emb.Replay(words)
			cl := emb.Class()
			ds := agg.NewDomainSupport(cl.Rep, minSupport, emb.Vertices(), cl.Perm)
			supports[cl.Code] = supports[cl.Code].Aggregate(ds)
		}
		frequent := map[string]bool{}
		n := 0
		for code, ds := range supports {
			if ds.HasEnoughSupport() {
				frequent[code] = true
				out.Frequent[code] = ds
				n++
			}
		}
		out.PerLevel = append(out.PerLevel, n)
		if n == 0 || level == maxEdges {
			break
		}
		// Materialize the next frontier from embeddings of frequent
		// patterns (the BSP superstep).
		var (
			next [][]subgraph.Word
			mu   sync.Mutex
			wg   sync.WaitGroup
		)
		chunk := (len(frontier) + cores - 1) / cores
		for c := 0; c < cores; c++ {
			lo := c * chunk
			if lo >= len(frontier) {
				break
			}
			hi := min(lo+chunk, len(frontier))
			wg.Add(1)
			go func(part [][]subgraph.Word) {
				defer wg.Done()
				we := subgraph.New(g, subgraph.EdgeInduced, nil)
				var buf []subgraph.Word
				var local [][]subgraph.Word
				for _, words := range part {
					we.Replay(words)
					if !frequent[we.Class().Code] {
						continue
					}
					buf, _ = we.Extensions(buf[:0])
					for _, w := range buf {
						nw := make([]subgraph.Word, len(words)+1)
						copy(nw, words)
						nw[len(words)] = w
						local = append(local, nw)
					}
				}
				mu.Lock()
				next = append(next, local...)
				mu.Unlock()
			}(frontier[lo:hi])
		}
		wg.Wait()
		frontier = next
		var bytes int64
		for _, words := range frontier {
			bytes += metrics.EmbeddingBytes(len(words)+1, len(words))
		}
		if bytes > out.PeakStateBytes {
			out.PeakStateBytes = bytes
		}
		if budget > 0 && bytes > budget {
			return nil, ErrOutOfMemory
		}
	}
	return out, nil
}
