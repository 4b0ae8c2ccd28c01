package apps

import (
	"context"
	"fmt"

	"fractal"
	"fractal/internal/pattern"
)

// Query counts the subgraphs of g isomorphic to the query pattern p
// (Listing 5 of the paper), each subgraph instance once. EnginePlan
// enumerates them through the plan's symmetry-breaking conditions:
//
//	results = graph.pfractoid(query).expand(query.nvertices).subgraphs()
//
// EngineDecomp evaluates p's decomposition polynomial over the local-count
// sweep instead (an error where no rule matches p), and EngineAuto lets the
// cost model choose, enumerating where the graph's labels rule the sweep
// out. A query is a closure over p, so it runs on in-process contexts only.
func Query(ctx context.Context, fc *fractal.Context, g *fractal.Graph, p *fractal.Pattern, engine string) (int64, *fractal.Result, error) {
	if err := specOnly(fc, "subgraph querying"); err != nil {
		return 0, nil, err
	}
	switch engine {
	case EnginePlan:
	case EngineDecomp:
		dp, err := fractal.CompileDecomp(p)
		if err != nil {
			return 0, nil, err
		}
		return g.DecompCountCtx(ctx, dp)
	case EngineAuto:
		ch, err := fractal.ChooseEngine(p)
		if err != nil {
			return 0, nil, err
		}
		if _, _, uniform := g.Raw().UniformLabels(); ch.UseDecomp && uniform {
			return g.DecompCountCtx(ctx, ch.Decomp)
		}
	default:
		return 0, nil, fmt.Errorf("apps: unknown query engine %q (want auto, plan or decomp)", engine)
	}
	return g.PFractoid(p).Expand(p.NumVertices()).CountCtx(ctx)
}

// QueryVisit streams every match of p to visit. visit runs concurrently on
// all cores.
func QueryVisit(ctx context.Context, fc *fractal.Context, g *fractal.Graph, p *fractal.Pattern,
	visit func(*fractal.Subgraph)) (*fractal.Result, error) {
	return g.PFractoid(p).Expand(p.NumVertices()).SubgraphsCtx(ctx, visit)
}

// SEEDQueries re-exports the benchmark query suite q1..q8 (Figure 14).
func SEEDQueries() []*fractal.Pattern { return pattern.SEEDQueries() }
