package apps

import (
	"context"
	"slices"
	"sync"
	"testing"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// Test-side reference engines. The suites in this package compare the
// single production drivers against these and against the pinned counts in
// oracle_pin_test.go; none of this is linked into a binary.

// bg is the context of tests that exercise no cancellation.
var bg = context.Background()

// cliquesOracle counts k-cliques with the seed path (Listing 2 of the
// paper), the differential oracle for the compiled Clique(k) plan:
//
//	graph.vfractoid.
//	  expand(1).filter(clique check).explore(k).subgraphs()
//
// Every automorphic duplicate is enumerated and rejected by the canonical
// check, so it shares no logic with plan compilation or symmetry breaking.
func cliquesOracle(g *fractal.Graph, k int) (int64, *fractal.Result, error) {
	return g.VFractoid().Expand(1).Filter(fractal.CliqueFilter).Explore(k).CountCtx(bg)
}

// motifsOracle counts motifs with the seed path (Listing 1 of the paper),
// the differential oracle for the plan fleet and the decomposition sweep:
//
//	graph.vfractoid.expand(k).
//	  aggregate[Pattern,Long]("motifs", pattern, 1, sum).
//	  aggregation("motifs")
//
// It enumerates every vertex-induced subgraph and canonicalizes each one —
// Pattern().Canonical() per embedding, no class memo — sharing nothing with
// pattern generation, plan compilation, the sweep or the memo. It is the
// one place Listing 1 runs in this package; examples/motifs shows it as a
// program.
func motifsOracle(fc *fractal.Context, g *fractal.Graph, k int) (MotifCounts, *fractal.Result, error) {
	frac := fractal.Aggregate(g.VFractoid().Expand(k), "motifs",
		func(e *fractal.Subgraph) string { return e.Pattern().Canonical().Code },
		func(e *fractal.Subgraph) agg.PatternCount {
			p := e.Pattern()
			return agg.PatternCount{Pat: p.Relabel(p.Canonical().Perm), Count: 1}
		},
		agg.ReducePatternCount, nil)
	m, res, err := fractal.AggregationMapCtx[string, agg.PatternCount](bg, frac, "motifs")
	return MotifCounts(m), res, err
}

// fsmOracleLevel maps the canonical code of each frequent pattern of one
// level to its MNI domains, sorted, by canonical position.
type fsmOracleLevel map[string][][]graph.VertexID

// fsmOracle mines g the way Listing 3 reads, one embedding at a time: every
// embedding is labelled by Pattern().Canonical() — no class memo, no class
// table — and folded under a mutex into hash-set domains (the seed
// DomainSupport shape). Level l re-enumerates from scratch, keeping only
// extensions of the earlier levels' frequent patterns: the anti-monotone
// filter the pipeline's prefix filters apply. It returns one entry per level,
// up to and including the first that finds nothing frequent.
func fsmOracle(t *testing.T, g *fractal.Graph, minSupport int64, maxEdges int) []fsmOracleLevel {
	t.Helper()
	return fsmOracleLevels(t, g, minSupport, maxEdges, false)
}

// fsmOracleLevels is fsmOracle, optionally closing each level before the
// next one reads it (the level-wise closure FSM computes): a frequent
// pattern with as many edges as its level is dropped when one of its
// connected sub-patterns with one edge fewer is not in the closed level
// before — decided after the fact, one Canonical() per sub-pattern, where
// the pipeline decides per class before it aggregates. A pattern with fewer
// edges than its level (parallel edges folded) is never dropped.
func fsmOracleLevels(t *testing.T, g *fractal.Graph, minSupport int64, maxEdges int, closed bool) []fsmOracleLevel {
	t.Helper()
	var mu sync.Mutex
	var levels []fsmOracleLevel
	for level := 1; level <= maxEdges; level++ {
		f := g.EFractoid().Expand(1)
		for l := 1; l < level; l++ {
			frequent := levels[l-1]
			f = f.Filter(func(e *fractal.Subgraph) bool {
				_, ok := frequent[e.Pattern().Canonical().Code]
				return ok
			}).Expand(1)
		}
		sets := map[string][]map[graph.VertexID]bool{}
		members := map[string]*pattern.Pattern{} // one pattern of each class met
		_, err := f.Visit(func(e *fractal.Subgraph) {
			p, vs := e.Pattern(), e.Vertices()
			canon := p.Canonical()
			mu.Lock()
			defer mu.Unlock()
			doms := sets[canon.Code]
			if doms == nil {
				members[canon.Code] = p
				doms = make([]map[graph.VertexID]bool, len(vs))
				for i := range doms {
					doms[i] = map[graph.VertexID]bool{}
				}
				sets[canon.Code] = doms
			}
			for i, v := range vs {
				doms[canon.Perm[i]][v] = true
			}
		}).RunCtx(bg)
		if err != nil {
			t.Fatal(err)
		}
		out := fsmOracleLevel{}
		for code, doms := range sets {
			sorted := make([][]graph.VertexID, len(doms))
			support := int64(len(doms[0]))
			for i, d := range doms {
				for v := range d {
					sorted[i] = append(sorted[i], v)
				}
				slices.Sort(sorted[i])
				support = min(support, int64(len(d)))
			}
			if support >= minSupport {
				out[code] = sorted
			}
		}
		for code := range out {
			if p := members[code]; closed && level > 1 && p.NumEdges() == level {
				for _, sub := range p.SubPatterns() {
					if _, ok := levels[level-2][sub.Canonical().Code]; !ok {
						delete(out, code)
						break
					}
				}
			}
		}
		levels = append(levels, out)
		if len(out) == 0 {
			break
		}
	}
	return levels
}

// fsmEqualsOracle holds an FSM run to the oracle: the same levels, under the
// same keys, with the same vertices in every domain.
func fsmEqualsOracle(t *testing.T, label string, got *FSMResult, want []fsmOracleLevel) {
	t.Helper()
	if len(got.PerLevel) != len(want) {
		t.Fatalf("%s: %d levels %v, oracle %d", label, len(got.PerLevel), got.PerLevel, len(want))
	}
	for l, lvl := range want {
		a, err := agg.Typed[string, *agg.DomainSupport](got.Last.Aggregations, fsmSupName(l+1))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if a.Len() != len(lvl) {
			t.Errorf("%s: %s has %d keys, oracle %d", label, fsmSupName(l+1), a.Len(), len(lvl))
		}
		for code, doms := range lvl {
			ds, ok := a.Get(code)
			if !ok {
				t.Errorf("%s: %s misses pattern %q", label, fsmSupName(l+1), code)
				continue
			}
			if len(ds.Domains) != len(doms) {
				t.Fatalf("%s: pattern %q arity %d, oracle %d", label, code, len(ds.Domains), len(doms))
			}
			support := int64(len(doms[0]))
			for pos, d := range doms {
				support = min(support, int64(len(d)))
				if !slices.Equal(ds.Sorted(pos), d) {
					t.Errorf("%s: pattern %q position %d: %d vertices, oracle %d (or other vertices)",
						label, code, pos, len(ds.Sorted(pos)), len(d))
				}
			}
			if ds.Support() != support {
				t.Errorf("%s: pattern %q support %d, oracle %d", label, code, ds.Support(), support)
			}
		}
	}
}
