package fractal

import (
	"context"
	"fmt"

	"fractal/internal/agg"
	"fractal/internal/pattern"
	"fractal/internal/sched"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// Fractoid holds the state of a Fractal application: the workflow of
// primitives accumulated so far plus the aggregation environment (Section
// 3.1). Fractoids are immutable — every operator returns a derived fractoid —
// so partial results can be executed and refined interactively.
type Fractoid struct {
	fg     *Graph
	kind   subgraph.Kind
	plan   *pattern.Plan
	custom subgraph.CustomExtender
	wf     step.Workflow
	env    *Aggregations
	err    error
}

// derive copies the fractoid with extra primitives appended.
func (f *Fractoid) derive(extra ...step.Primitive) *Fractoid {
	nf := *f
	nf.wf = append(append(step.Workflow{}, f.wf...), extra...)
	if nf.err == nil {
		nf.err = nf.wf.CheckClassFilters()
	}
	return &nf
}

// Err returns the first construction error (e.g. an unusable query
// pattern); execution methods return it too.
func (f *Fractoid) Err() error { return f.err }

// Workflow returns the compact primitive string, e.g. "EEEA".
func (f *Fractoid) Workflow() string { return f.wf.String() }

// WithAggregations attaches precomputed aggregation results that AggFilter
// operators may read (the FSM loop threads its "support" this way).
func (f *Fractoid) WithAggregations(env *Aggregations) *Fractoid {
	nf := *f
	nf.wf = append(step.Workflow{}, f.wf...)
	nf.env = env
	return &nf
}

// Expand appends n extension primitives (operator W1). n must be at least
// 1; like Explore, a non-positive n yields a fractoid whose Err is set and
// whose execution fails.
func (f *Fractoid) Expand(n int) *Fractoid {
	if n < 1 {
		nf := *f
		nf.err = fmt.Errorf("fractal: expand(%d) requires n >= 1", n)
		return &nf
	}
	nf := f
	for i := 0; i < n; i++ {
		nf = nf.derive(step.ExtendP())
	}
	return nf
}

// Filter appends a local filtering primitive (operator W3).
func (f *Fractoid) Filter(pred func(*Subgraph) bool) *Fractoid {
	return f.derive(step.FilterP(pred))
}

// Explore repeats the fractoid's current workflow fragment so that it
// appears n times in total (operator W5). Listing 2 of the paper builds
// k-clique listing as expand(1).filter(clique).explore(k).
func (f *Fractoid) Explore(n int) *Fractoid {
	if n < 1 {
		nf := *f
		nf.err = fmt.Errorf("fractal: explore(%d) requires n >= 1", n)
		return &nf
	}
	fragment := append(step.Workflow{}, f.wf...)
	nf := f
	for i := 1; i < n; i++ {
		nf = nf.derive(fragment...)
	}
	return nf
}

// Visit appends a primitive that streams each embedding reaching this point
// of the workflow to fn. fn runs concurrently on all cores and must be safe
// for that. Under WithStepRetries, visits are at-least-once: a step attempt
// abandoned after a worker loss may already have streamed embeddings the
// retry streams again (side effects cannot be unrun the way aggregation
// partials are discarded). Use Aggregate — or CountCtx, which is one — when
// exactly-once matters.
func (f *Fractoid) Visit(fn func(*Subgraph)) *Fractoid {
	return f.derive(step.VisitP(fn))
}

// Aggregate appends an aggregation primitive (operator W2): key and value
// extract an entry from each subgraph, reduce folds values per key, and the
// optional aggFilter (nil for none) prunes the final reduced mapping.
// Partials cross the wire at the end of every step, so K must be string and
// V one of int64, PatternCount or *DomainSupport; any other shape fails the
// run with an *UnsupportedShapeError before anything is enumerated.
//
// reduce's and aggFilter's arguments are borrowed: valid for the call only,
// never to be retained. A *DomainSupport handed to either may be pooled
// storage that is reused once the call returns (reduce's second argument is
// consumed, and its result is the one value that lives on); aggFilter's key
// may alias the frame it arrived in. Both read a *DomainSupport's pattern
// through its Pattern method: Pat is nil there while the pattern is still in
// wire form, and is set for the entries kept. Only what the aggregation
// keeps — the map AggregationMapCtx returns — is owned.
func Aggregate[K comparable, V any](f *Fractoid, name string,
	key func(*Subgraph) K, value func(*Subgraph) V,
	reduce func(V, V) V, aggFilter func(K, V) bool) *Fractoid {
	proto := agg.New[K, V](reduce)
	if aggFilter != nil {
		proto.WithFilter(aggFilter)
	}
	spec := &step.AggSpec{
		Name:  name,
		Proto: proto,
		Emit: func(e *subgraph.Embedding, local agg.Store) {
			local.(*agg.Aggregation[K, V]).Add(key(e), value(e))
		},
	}
	return f.derive(step.AggregateP(spec))
}

// FilterAgg appends an aggregation-filtering primitive (operator W4): pred
// sees each subgraph together with the computed aggregation named name.
// Reading an aggregation defined earlier in the same workflow introduces a
// synchronization point (Algorithm 2).
func FilterAgg[K comparable, V any](f *Fractoid, name string,
	pred func(*Subgraph, *agg.Aggregation[K, V]) bool) *Fractoid {
	return f.derive(step.AggFilterP(name, func(e *subgraph.Embedding, s agg.Store) bool {
		a, ok := s.(*agg.Aggregation[K, V])
		return ok && pred(e, a)
	}))
}

// FilterAggClass is FilterAgg for a predicate that depends only on the
// subgraph's pattern class (Subgraph.Class) and the aggregation: pred sees
// the class's process-wide entry — Code and Rep; Perm belongs to a numbering
// and is nil there — and runs once per class per core instead of once per
// subgraph. The verdict is kept in the embedding's class memo, which is
// sound because a step never writes the environment it reads (Section 4.1):
// the aggregation pred sees is the same for every subgraph of the step. pred
// must be a pure function of its arguments. A workflow holds at most 32
// class filters; one more sets Err.
func FilterAggClass[K comparable, V any](f *Fractoid, name string,
	pred func(*PatternClass, *agg.Aggregation[K, V]) bool) *Fractoid {
	return f.derive(step.ClassFilterP(name, func(cl *pattern.Class, s agg.Store, _ *pattern.Labeller) bool {
		a, ok := s.(*agg.Aggregation[K, V])
		return ok && pred(cl, a)
	}))
}

// FilterAggSubPatterns appends the level-wise pruning filter of an
// edge-induced fractoid mining under an anti-monotone aggregation keyed by
// pattern code: a subgraph of L edges passes only if every connected
// sub-pattern of its class with L-1 edges (Pattern.SubPatterns) is a key of
// the aggregation named name, which must hold the previous level's result.
// A class with fewer pattern edges than its subgraphs have edges — parallel
// edges of a multigraph fold into one pattern edge — never passes: a level
// mines simple patterns of exactly L edges, and the folded class is a
// pattern of an earlier level. It is a class filter (FilterAggClass): the
// sub-patterns are labelled once per class per core, and the searches count
// as canonical-labelling calls in the report.
func FilterAggSubPatterns[V any](f *Fractoid, name string) *Fractoid {
	if f.kind != subgraph.EdgeInduced {
		nf := *f
		nf.err = fmt.Errorf("fractal: FilterAggSubPatterns requires an edge-induced fractoid, got %s", f.kind)
		return &nf
	}
	edges := f.wf.NumExtensions()
	return f.derive(step.ClassFilterP(name, func(cl *pattern.Class, s agg.Store, lab *pattern.Labeller) bool {
		a, ok := s.(*agg.Aggregation[string, V])
		if !ok {
			return false
		}
		return cl.Rep.NumEdges() == edges &&
			lab.EverySubClass(cl.Rep, func(sub *pattern.Class) bool { return a.Contains(sub.Code) })
	}))
}

// CombineResults merges the results of several executions run back to back
// on the same Context — the multi-plan motif engine runs one job per
// compiled pattern plan — into one Result: step reports concatenate in job
// order (so TotalEC spans all jobs), wall times sum, and the observability
// reports merge via sched.CombineReports. Aggregations are not merged (a
// meaningful merge is application-specific); read each job's own Result
// for them. Nil results are skipped; all-nil input yields nil.
func CombineResults(results ...*Result) *Result {
	var out *Result
	var reports []*sched.RunReport
	for _, r := range results {
		if r == nil {
			continue
		}
		if out == nil {
			out = &Result{}
		}
		out.Steps = append(out.Steps, r.Steps...)
		out.Wall += r.Wall
		reports = append(reports, r.Report)
	}
	if out != nil {
		out.Report = sched.CombineReports(reports...)
	}
	return out
}

// Job exports the fractoid as a runtime job description without executing
// it. This is how spec builders (SpecBuilder.Build) turn a fluently composed
// workflow into the sched.Job a worker process runs: compose against a
// NewBuildGraph handle — no Context needed — and return the export. The
// error surfaces any defect accumulated while composing (bad plan, invalid
// primitive combination).
func (f *Fractoid) Job() (sched.Job, error) {
	if f.err != nil {
		return sched.Job{}, f.err
	}
	return sched.Job{
		Graph:    f.fg.g,
		Kind:     f.kind,
		Plan:     f.plan,
		Custom:   f.custom,
		Workflow: f.wf,
		Env:      f.env,
	}, nil
}

// RunCtx executes the workflow as-is (triggering every synchronization
// point) and returns the computed aggregations and metrics. Cancelling ctx
// (or exceeding its deadline, or the runtime's per-step timeout) interrupts
// enumeration on every core within one DFS iteration, drains the step
// cleanly, and returns the partial Result (last step marked Cancelled)
// alongside an error wrapping context.Canceled or context.DeadlineExceeded,
// so callers can observe how far execution got. The Context remains usable
// for further jobs. A job queues behind a running one (see Context).
func (f *Fractoid) RunCtx(ctx context.Context) (*Result, error) {
	job, err := f.Job()
	if err != nil {
		return nil, err
	}
	return f.fg.ctx.rt.Run(ctx, job)
}

// SubgraphsCtx executes the workflow and streams every complete embedding
// to visit (output operator O1; the paper exposes an RDD, this
// implementation streams). visit runs concurrently on all cores and must be
// safe for that. Cancellation semantics are those of RunCtx: on early
// cancellation, visit has seen a prefix of the embedding stream.
func (f *Fractoid) SubgraphsCtx(ctx context.Context, visit func(*Subgraph)) (*Result, error) {
	return f.Visit(visit).RunCtx(ctx)
}

// CountCtx executes the workflow and returns the number of embeddings that
// reach the end of it. The count is an aggregation (step.CountP): per-core
// partial sums merged and shipped like any other, so it is exact under
// WithStepRetries — a failed attempt's partials are discarded wholesale —
// and a cancelled or failed run reports 0 alongside the error, never a
// partial count.
func (f *Fractoid) CountCtx(ctx context.Context) (int64, *Result, error) {
	res, err := f.derive(step.CountP()).RunCtx(ctx)
	if res == nil || err != nil {
		return 0, res, err
	}
	return step.CountOf(res.Aggregations), res, nil
}

// AggregationMapCtx executes the fractoid and returns the reduced mapping
// of the named aggregation (output operator O2). A cancelled execution
// returns the partial Result with the error; the mapping itself is nil in
// that case, because a cancelled step's partial aggregations are discarded
// rather than merged (partial reductions are not meaningful).
func AggregationMapCtx[K comparable, V any](ctx context.Context, f *Fractoid, name string) (map[K]V, *Result, error) {
	res, err := f.RunCtx(ctx)
	if err != nil {
		return nil, res, err
	}
	a, err := agg.Typed[K, V](res.Aggregations, name)
	if err != nil {
		return nil, res, err
	}
	return a.Entries(), res, nil
}
