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
// (Listing 5 of the paper), each subgraph instance once, as DecideQuery
// decides: either p's decomposition over the local-count sweep, or the
// plan, which enumerates the matches through its symmetry-breaking
// conditions:
//
//	results = graph.pfractoid(query).expand(query.nvertices).subgraphs()
//
// Both submit registered specs, so a query runs on a master's workers as it
// does in process.
func Query(ctx context.Context, fc *fractal.Context, g *fractal.Graph, p *fractal.Pattern, engine string) (int64, *fractal.Result, error) {
	d, err := DecideQuery(g, p, engine)
	if err != nil {
		return 0, nil, err
	}
	return countOne(ctx, g, d)
}

// countOne executes a single-pattern decision: the pattern's decomposition
// over the sweep, or its plan through the query spec.
func countOne(ctx context.Context, g *fractal.Graph, d *Decision) (int64, *fractal.Result, error) {
	if d.Swept(0) {
		return g.DecompCountCtx(ctx, d.Sweep[0])
	}
	res, err := g.RunSpec(ctx, AppQuery, map[string]string{"pattern": string(d.Patterns[0].AppendBinary(nil))}, nil)
	if err != nil {
		return 0, res, err
	}
	return step.CountOf(res.Aggregations), res, nil
}

// SEEDQueries re-exports the benchmark query suite q1..q8 (Figure 14).
func SEEDQueries() []*fractal.Pattern { return pattern.SEEDQueries() }
