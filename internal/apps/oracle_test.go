package apps

import (
	"context"

	"fractal"
	"fractal/internal/agg"
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
// It enumerates every vertex-induced subgraph and canonicalizes each one,
// sharing nothing with pattern generation, plan compilation or the sweep.
// Production keeps the same listing as Motifs' EngineCanon (its path for k
// beyond the generated pattern sets); TestMotifsCanonEngineMatchesOracle
// holds the two together.
func motifsOracle(fc *fractal.Context, g *fractal.Graph, k int) (MotifCounts, *fractal.Result, error) {
	frac := fractal.Aggregate(g.VFractoid().Expand(k), "motifs",
		func(e *fractal.Subgraph) string { return fc.PatternOf(e).Code },
		func(e *fractal.Subgraph) agg.PatternCount {
			return agg.PatternCount{Pat: fc.PatternRep(e), Count: 1}
		},
		agg.ReducePatternCount, nil)
	m, res, err := fractal.AggregationMapCtx[string, agg.PatternCount](bg, frac, "motifs")
	return MotifCounts(m), res, err
}
