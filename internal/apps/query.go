package apps

import (
	"context"
	"fmt"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/sched"
	"fractal/internal/step"
	"fractal/internal/wire"
)

// queryBuilder is the subgraph-querying kernel: one pattern-induced job over
// the pattern's symmetry-broken (non-induced) plan, counting each match once.
// Args: "pattern", the pattern's wire form (Pattern.AppendBinary), refused
// above pattern.MaxGenVertices vertices.
type queryBuilder struct{}

func (queryBuilder) EnvProtos(fractal.JobSpec) (map[string]agg.Store, error) {
	return nil, nil
}

func (queryBuilder) Build(spec fractal.JobSpec, g *graph.Graph, _ *agg.Registry) (sched.Job, error) {
	r := wire.NewReader([]byte(spec.Arg("pattern")))
	p := pattern.ReadBinary(r)
	if err := r.Done(); err != nil {
		return sched.Job{}, fmt.Errorf("apps: spec %q argument \"pattern\": %w", spec.App, err)
	}
	if n := p.NumVertices(); n > pattern.MaxGenVertices {
		return sched.Job{}, fmt.Errorf("apps: spec %q pattern has %d vertices, at most %d allowed", spec.App, n, pattern.MaxGenVertices)
	}
	plan, err := fractal.CompilePlan(p)
	if err != nil {
		return sched.Job{}, err
	}
	return countJob(fractal.NewBuildGraph(g).PFractoidPlan(plan).Expand(p.NumVertices()))
}

// Query counts the subgraphs of g isomorphic to the query pattern p
// (Listing 5 of the paper), each subgraph instance once. EnginePlan
// enumerates them through the plan's symmetry-breaking conditions:
//
//	results = graph.pfractoid(query).expand(query.nvertices).subgraphs()
//
// EngineDecomp evaluates p's decomposition over the local-count sweep
// instead (an error where no cut decomposes p), and EngineAuto lets the cost
// model choose, enumerating where the graph's labels rule the sweep out.
// Both engines submit registered specs, so a query runs on a master's
// workers as it does in process.
func Query(ctx context.Context, fc *fractal.Context, g *fractal.Graph, p *fractal.Pattern, engine string) (int64, *fractal.Result, error) {
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
	res, err := g.RunSpec(ctx, AppQuery, map[string]string{"pattern": string(p.AppendBinary(nil))}, nil)
	if err != nil {
		return 0, res, err
	}
	return step.CountOf(res.Aggregations), res, nil
}

// QueryVisit streams every match of p to visit. visit runs concurrently on
// all cores.
func QueryVisit(ctx context.Context, fc *fractal.Context, g *fractal.Graph, p *fractal.Pattern,
	visit func(*fractal.Subgraph)) (*fractal.Result, error) {
	return g.PFractoid(p).Expand(p.NumVertices()).SubgraphsCtx(ctx, visit)
}

// SEEDQueries re-exports the benchmark query suite q1..q8 (Figure 14).
func SEEDQueries() []*fractal.Pattern { return pattern.SEEDQueries() }
