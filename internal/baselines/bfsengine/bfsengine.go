// Package bfsengine implements the Arabesque-style baseline the paper
// compares against (Teixeira et al., SOSP'15): a BFS/BSP engine that
// enumerates subgraphs level-synchronously, materializing every embedding of
// each level between supersteps. This is the design whose intermediate state
// grows combinatorially with depth (Section 4.1, Table 2), in contrast to
// Fractal's DFS + from-scratch strategy.
//
// The engine runs its supersteps across logical cores with a barrier per
// level (the BSP synchronization the paper attributes Arabesque's overheads
// to) and accounts the peak materialized state in bytes. An optional memory
// budget makes runs fail with ErrOutOfMemory the way Arabesque and
// GraphFrames do in Figures 12 and 15.
package bfsengine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fractal/internal/metrics"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"

	igraph "fractal/internal/graph"
)

// ErrOutOfMemory reports that the materialized intermediate state exceeded
// the configured budget.
var ErrOutOfMemory = errors.New("bfsengine: intermediate state exceeded memory budget")

// Config tunes a BFS run.
type Config struct {
	// Cores is the number of logical cores per superstep (default 1).
	Cores int
	// MemoryBudget bounds the materialized embedding bytes (0 = unlimited).
	MemoryBudget int64
	// Filter, when set, prunes embeddings at every level.
	Filter func(*subgraph.Embedding) bool
}

// Result reports a BFS run.
type Result struct {
	// Count is the number of depth-level embeddings (after filtering).
	Count int64
	// PerLevel is the embedding count of each level.
	PerLevel []int64
	// PeakStateBytes is the peak materialized state across supersteps.
	PeakStateBytes int64
	// EC is the extension cost.
	EC int64
	// Wall is the run duration.
	Wall time.Duration
}

// embeddingStore is one level's materialized embeddings (their word
// sequences) and their accounted state in bytes.
type embeddingStore struct {
	mu    sync.Mutex
	words [][]subgraph.Word
	bytes int64
}

// add stores w and reports whether the level's state now exceeds budget
// (never when budget is 0). A superstep stops at the first embedding over
// budget, the way a worker's heap runs out mid-level, rather than after
// materializing the whole level: the verdict is the same, the memory held
// is the budget's.
func (s *embeddingStore) add(w []subgraph.Word, budget int64) bool {
	s.mu.Lock()
	s.words = append(s.words, w)
	s.bytes += metrics.EmbeddingBytes(len(w), len(w)) // vertices+edges approx.
	over := budget > 0 && s.bytes > budget
	s.mu.Unlock()
	return over
}

// Run enumerates all depth-level embeddings of kind over g, level by level.
func Run(g *igraph.Graph, kind subgraph.Kind, plan *pattern.Plan, depth int, cfg Config) (*Result, error) {
	return run(g, kind, plan, depth, cfg, nil)
}

// RunVisit is Run with a visitor invoked for every complete embedding
// (concurrently).
func RunVisit(g *igraph.Graph, kind subgraph.Kind, plan *pattern.Plan, depth int, cfg Config,
	visit func(*subgraph.Embedding)) (*Result, error) {
	return run(g, kind, plan, depth, cfg, visit)
}

func run(g *igraph.Graph, kind subgraph.Kind, plan *pattern.Plan, depth int, cfg Config,
	visit func(*subgraph.Embedding)) (*Result, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	start := time.Now()
	res := &Result{}

	// Level 0: initial words.
	probe := subgraph.New(g, kind, plan)
	cur := &embeddingStore{}
	for w := subgraph.Word(0); int(w) < probe.InitialDomain(); w++ {
		if probe.ValidInitial(w) && cur.add([]subgraph.Word{w}, cfg.MemoryBudget) {
			return nil, ErrOutOfMemory
		}
	}
	res.levelDone(cur, cfg, g, kind, plan, visit, depth == 1)

	var ec atomic.Int64
	var oom atomic.Bool
	for level := 2; level <= depth; level++ {
		next := &embeddingStore{}
		var wg sync.WaitGroup
		chunk := (len(cur.words) + cfg.Cores - 1) / cfg.Cores
		if chunk == 0 {
			chunk = 1
		}
		for c := 0; c < cfg.Cores; c++ {
			lo := c * chunk
			if lo >= len(cur.words) {
				break
			}
			hi := lo + chunk
			if hi > len(cur.words) {
				hi = len(cur.words)
			}
			wg.Add(1)
			go func(part [][]subgraph.Word) {
				defer wg.Done()
				emb := subgraph.New(g, kind, plan)
				var buf []subgraph.Word
				for _, words := range part {
					if oom.Load() {
						return
					}
					emb.Replay(words)
					var tested int
					buf, tested = emb.Extensions(buf[:0])
					ec.Add(int64(tested))
					for _, w := range buf {
						nw := make([]subgraph.Word, len(words)+1)
						copy(nw, words)
						nw[len(words)] = w
						if next.add(nw, cfg.MemoryBudget) {
							oom.Store(true)
							return
						}
					}
				}
			}(cur.words[lo:hi])
		}
		wg.Wait() // BSP barrier
		if oom.Load() {
			return nil, ErrOutOfMemory
		}
		res.levelDone(next, cfg, g, kind, plan, visit, level == depth)
		cur = next
	}
	res.EC = ec.Load()
	res.Wall = time.Since(start)
	return res, nil
}

// levelDone accounts a completed level's state, filters it in place into
// the next frontier, and applies the visitor at the final depth.
func (res *Result) levelDone(s *embeddingStore, cfg Config, g *igraph.Graph,
	kind subgraph.Kind, plan *pattern.Plan, visit func(*subgraph.Embedding), final bool) {
	// The BSP superstep materializes every extension before the filter
	// runs, so add accounted the level's state (and enforced the budget)
	// on the unfiltered frontier — this is the intermediate-state growth
	// that Table 2 and Section 4.1 describe.
	if s.bytes > res.PeakStateBytes {
		res.PeakStateBytes = s.bytes
	}
	if cfg.Filter != nil || (final && visit != nil) {
		emb := subgraph.New(g, kind, plan)
		kept := s.words[:0]
		for _, words := range s.words {
			emb.Replay(words)
			if cfg.Filter != nil && !cfg.Filter(emb) {
				continue
			}
			kept = append(kept, words)
			if final && visit != nil {
				visit(emb)
			}
		}
		s.words = kept
	}
	res.PerLevel = append(res.PerLevel, int64(len(s.words)))
	if final {
		res.Count = int64(len(s.words))
	}
}
