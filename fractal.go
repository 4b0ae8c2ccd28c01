// Package fractal is a Go implementation of Fractal, the general-purpose
// graph pattern mining (GPM) system of Dias et al. (SIGMOD 2019). It
// provides the paper's subgraph-centric programming interface — fractoids
// composed from extension, aggregation, and filtering primitives — on top of
// a from-scratch, depth-first, work-stealing runtime.
//
// A minimal application (counting triangles):
//
//	fctx, _ := fractal.NewContext(fractal.WithCores(4))
//	defer fctx.Close()
//	g, _ := fctx.LoadGraph("mico.graph")
//	n, _, _ := g.VFractoid().Expand(3).
//		Filter(fractal.CliqueFilter).
//		CountCtx(ctx)
//
// Execution is context-first: the canonical execution methods — RunCtx,
// CountCtx, SubgraphsCtx, AggregationMapCtx — take a context.Context and
// honour cancellation and deadlines end to end, through the master, the
// workers, and every execution core's enumeration loop. There is no
// context-free form: a caller with nothing to cancel passes
// context.Background().
//
// See the examples directory for the paper's application listings (motifs,
// cliques, FSM, keyword search, subgraph querying) written against this API.
package fractal

import (
	"context"
	"fmt"
	"io"
	"time"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/metrics"
	"fractal/internal/pattern"
	"fractal/internal/rpc"
	"fractal/internal/sched"
	"fractal/internal/subgraph"
)

// Config configures the runtime: number of workers, cores per worker,
// work-stealing mode, and transport. See sched.Config.
type Config = sched.Config

// Re-exported work-stealing modes.
const (
	WSNone     = sched.WSNone
	WSInternal = sched.WSInternal
	WSExternal = sched.WSExternal
	WSBoth     = sched.WSBoth
)

// Subgraph is the embedding passed to user functions (filters, aggregation
// key/value extractors, visitors).
type Subgraph = subgraph.Embedding

// Pattern is a subgraph template (for pattern-induced fractoids and
// aggregation keys).
type Pattern = pattern.Pattern

// PatternClass is an isomorphism class of patterns as Subgraph.Class and the
// class filters (FilterAggClass) hand it out: Code is the class's aggregation
// key, Rep its one shared representative pattern.
type PatternClass = pattern.Class

// Plan is a compiled pattern-matching plan: a cost-model-selected vertex
// order with per-level backward constraints and Grochow–Kellis
// symmetry-breaking restrictions, so every automorphism class of embeddings
// is enumerated exactly once. Compile one with CompilePlan (or
// CompileInducedPlan) and run it with Graph.PFractoidPlan; Plan.Explain
// renders it human-readably.
type Plan = pattern.Plan

// CompilePlan compiles p into an execution plan matching p's edges (an
// embedding may have extra edges between matched vertices, the usual
// subgraph-querying semantics). The plan is immutable and reusable across
// graphs and runs. The error reports unusable patterns (empty,
// disconnected).
func CompilePlan(p *Pattern) (*Plan, error) { return pattern.NewPlan(p) }

// CompileInducedPlan compiles p into a plan with vertex-induced matching
// semantics: an embedding must have exactly p's edges among its vertices,
// no more. The multi-plan motif engine is built on induced plans.
func CompileInducedPlan(p *Pattern) (*Plan, error) { return pattern.NewInducedPlan(p) }

// PatternBuilder constructs query patterns for CompilePlan / PFractoid;
// see NewPatternBuilder.
type PatternBuilder = pattern.PBuilder

// NewPatternBuilder returns a builder for an n-vertex query pattern.
// Vertices are 0..n-1; labels default to NoLabel (match any).
func NewPatternBuilder(n int) *PatternBuilder { return pattern.NewBuilder(n) }

// NoLabel is the wildcard vertex/edge label on query patterns.
const NoLabel = pattern.NoLabel

// Named query patterns, reusable with CompilePlan and PFractoid.
func PatternClique(k int) *Pattern { return pattern.Clique(k) }
func PatternTriangle() *Pattern    { return pattern.Triangle() }
func PatternPath(k int) *Pattern   { return pattern.Path(k) }
func PatternCycle(k int) *Pattern  { return pattern.Cycle(k) }
func PatternStar(k int) *Pattern   { return pattern.Star(k) }

// ConnectedPatterns returns all non-isomorphic connected unlabeled
// patterns on k vertices (k up to pattern.MaxGenVertices), the pattern
// set the multi-plan motif engine compiles and runs.
func ConnectedPatterns(k int) ([]*Pattern, error) { return pattern.ConnectedPatterns(k) }

// DomainSupport is the minimum image-based support value used by FSM.
type DomainSupport = agg.DomainSupport

// Aggregations is the environment of named aggregation results.
type Aggregations = agg.Registry

// Result re-exports the outcome of an execution, the one type every
// execution method and application driver returns: the computed
// Aggregations, the per-step metrics (Steps, TotalEC), the wall time, and
// the run-level Report. A cancelled or failed run returns its partial Result
// alongside the error.
type Result = sched.Result

// StepReport re-exports the per-step execution metrics.
type StepReport = sched.StepReport

// RunReport re-exports the run-level observability record: per-step
// counters and ping waves, transport traffic, and the
// trace journal of a WithTrace-enabled run. Every execution's Result
// carries one; WriteJSON exports it in the --metrics-out schema.
type RunReport = sched.RunReport

// QuiescenceRound re-exports one ping wave of the master's termination
// detection: the wave that confirms a step's end (or fails to), or a
// liveness probe after WorkerTimeout of silence. Wait is its round trip.
type QuiescenceRound = sched.QuiescenceRound

// MetricsSnapshot re-exports the counter block embedded in step reports:
// the step's cores' counters, summed per worker and then over the workers.
type MetricsSnapshot = metrics.Snapshot

// TraceEvent re-exports one entry of the structured trace journal.
type TraceEvent = metrics.TraceEvent

// WorkerLostError re-exports the typed error returned when a worker becomes
// unreachable (or silent) mid-job; match it with errors.As. With
// WithStepRetries enabled the runtime retries the step instead, and this
// error only surfaces wrapped in a RetryExhaustedError.
type WorkerLostError = sched.WorkerLostError

// RetryExhaustedError re-exports the typed error returned when a step kept
// losing workers until the WithStepRetries budget ran out; its Unwrap chain
// reaches the last WorkerLostError.
type RetryExhaustedError = sched.RetryExhaustedError

// FaultInjector re-exports the transport fault-injection hook (see
// rpc.Script for the scripted implementation); install one with
// WithFaultInjector. Test machinery — production runs leave it unset.
type FaultInjector = rpc.FaultInjector

// AggregationError re-exports the typed error returned when a step's
// aggregation partials could not be merged, encoded, shipped, or decoded;
// match it with errors.As. It replaces the former silent behaviour of
// shipping a partially merged (wrong) or missing aggregation.
type AggregationError = sched.AggregationError

// UnsupportedShapeError re-exports the typed error returned — before step 0
// enumerates anything — for a job that aggregates under a key or value type
// with no wire form; match it with errors.As. The shippable shapes are
// string keys to int64, PatternCount or *DomainSupport values.
type UnsupportedShapeError = agg.UnsupportedShapeError

// ParseError re-exports the typed error LoadGraph and ConvertGraph return
// for a text graph (.el, .graph, .kw sidecar) they refuse: it names the
// file, the line and the reason — a malformed record, an id at or above
// MaxInt32, an adjacency-list edge listed from one endpoint only. Match it
// with errors.As.
type ParseError = graph.ParseError

// ConfigError re-exports the typed error returned when a configuration
// option or Config field is rejected by validation; match it with errors.As.
type ConfigError = sched.ConfigError

// JobSpec re-exports the serializable job description of distributed
// deployments: a registered application name, a graph path, and string
// arguments, from which master and worker processes each materialize an
// identical job. Submit one with Context.RunSpec.
type JobSpec = sched.JobSpec

// SpecBuilder re-exports the materializer interface behind registered
// applications (RegisterApp): its one method, Build, uses JobSpec, RawGraph
// and Job so that modules outside this one can implement it.
type SpecBuilder = sched.SpecBuilder

// RawGraph re-exports the runtime adjacency representation: what Graph.Raw
// returns and what SpecBuilder.Build receives. Wrap one with NewBuildGraph
// to compose fractoids from it.
type RawGraph = graph.Graph

// Job re-exports the executable job description that Fractoid.Job produces
// and SpecBuilder.Build returns.
type Job = sched.Job

// WorkerOptions re-exports the configuration of a worker process
// (ServeWorker).
type WorkerOptions = sched.ServeWorkerOptions

// RegisterApp installs a spec builder for an application name. Both the
// master and every worker binary must register the same apps (typically in
// an init function of the package defining the app).
func RegisterApp(name string, b SpecBuilder) { sched.RegisterApp(name, b) }

// AggregationEntries reads the named aggregation of a result environment as
// a plain map — the RunSpec counterpart of AggregationMapCtx. The type
// parameters must match the aggregation's declared key and value types.
func AggregationEntries[K comparable, V any](env *Aggregations, name string) (map[K]V, error) {
	a, err := agg.Typed[K, V](env, name)
	if err != nil {
		return nil, err
	}
	return a.Entries(), nil
}

// ServeWorker runs this process as a fractal worker: bind a listener,
// register with the master at masterAddr, and serve steps until the master
// shuts the worker down (nil return), the transport fails, or ctx ends. The
// master dictates the execution configuration (cores, work stealing,
// timeouts) in its registration reply. This is the library entry point
// behind cmd/fractal-worker.
func ServeWorker(ctx context.Context, masterAddr string, opts WorkerOptions) error {
	return sched.ServeWorker(ctx, masterAddr, opts)
}

// ReadRunReport parses a RunReport written by RunReport.WriteJSON (the
// cmd/fractal --metrics-out format).
func ReadRunReport(r io.Reader) (*RunReport, error) { return sched.ReadRunReport(r) }

// Context is the entry point of a Fractal application (the FractalContext of
// Figure 2, operator C1). It owns the runtime resources; Close releases
// them.
//
// A Context runs one job at a time: concurrent jobs queue, and one whose
// ctx ends while queued returns a nil Result and an error wrapping
// ctx.Err(). A Visit must not submit a job to its own Context.
type Context struct {
	rt *sched.Runtime
}

// Option configures a Context. Options are applied in order over a default
// configuration of one worker, one core, hierarchical work stealing, and
// the in-process loopback transport. An option returns an error when its
// argument is nonsensical (zero workers, negative retries, …) — previously
// such values were silently coerced to defaults, hiding deployment typos;
// match the error with errors.As against *ConfigError.
type Option func(*Config) error

// WithWorkers sets the number of worker nodes (at least 1).
func WithWorkers(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return &ConfigError{Field: "Workers", Reason: fmt.Sprintf("must be at least 1, got %d", n)}
		}
		c.Workers = n
		return nil
	}
}

// WithCores sets the number of execution cores per worker (at least 1).
func WithCores(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return &ConfigError{Field: "CoresPerWorker", Reason: fmt.Sprintf("must be at least 1, got %d", n)}
		}
		c.CoresPerWorker = n
		return nil
	}
}

// WithWS selects the work-stealing configuration (WSNone, WSInternal,
// WSExternal, WSBoth).
func WithWS(ws sched.WorkStealing) Option {
	return func(c *Config) error {
		if ws > WSBoth {
			return &ConfigError{Field: "WS", Reason: fmt.Sprintf("unknown work-stealing mode %d", ws)}
		}
		c.WS = ws
		return nil
	}
}

// WithListenAddr switches the context into distributed master mode: no
// in-process workers; instead the master binds a TCP listener at addr (e.g.
// ":7001", or "127.0.0.1:0" for tests — read the bound address back with
// Context.ListenAddr) and serves registrations from fractal-worker processes
// (ServeWorker / cmd/fractal-worker). Jobs are then submitted as
// serializable specs through Context.RunSpec; the worker set is elastic, and
// workers that register mid-job join at the next step attempt.
func WithListenAddr(addr string) Option {
	return func(c *Config) error {
		if addr == "" {
			return &ConfigError{Field: "ListenAddr", Reason: "must not be empty"}
		}
		c.ListenAddr = addr
		return nil
	}
}

// WithWorkerTimeout sets how long the master waits on silence from all
// participants before it probes the workers, and how long a probe may go
// unanswered before the step attempt fails with a *sched.WorkerLostError.
// It is the only timer of the master's termination detection, so it is
// also how long a worker that dies busy goes undetected (default 1 minute).
func WithWorkerTimeout(d time.Duration) Option {
	return func(c *Config) error { c.WorkerTimeout = d; return nil }
}

// WithStepRetries makes runs survive worker loss: on a WorkerLostError the
// master discards the failed attempt's partials, excludes the lost worker
// for the rest of the job, and re-executes the step from scratch over the
// survivors 5 ms later, up to n retries per step. Results are bit-identical to
// fault-free runs — exactly one attempt's aggregations are ever committed.
// When the budget runs out the job fails with a *RetryExhaustedError. On a
// master, a worker it can no longer send to costs no retry: it is forgotten,
// and the step re-executes over the other workers. Note
// that Visit callbacks are at-least-once under retries (a failed attempt's
// visits cannot be unrun); counting and aggregation stay exact.
func WithStepRetries(n int) Option {
	return func(c *Config) error {
		if n < 0 {
			return &ConfigError{Field: "StepRetries", Reason: fmt.Sprintf("must not be negative, got %d", n)}
		}
		c.StepRetries = n
		return nil
	}
}

// WithFaultInjector installs a transport fault injector (drop, delay, or
// sever scheduled by an rpc.Script): every message send of the master and
// the workers consults it first. This is the chaos-testing harness behind
// the retry machinery's differential tests.
func WithFaultInjector(inj FaultInjector) Option {
	return func(c *Config) error { c.FaultInjector = inj; return nil }
}

// WithTrace enables the structured trace journal: every run records step
// start/end, quiescence rounds, steal attempts and outcomes, and
// cancellation/drain events into a ring of metrics.DefaultTraceCapacity
// (16384) events exposed through Result.Report.Trace; when it fills, the
// oldest events are overwritten and Result.Report.TraceDropped counts the
// loss. With tracing disabled (the default) every event site costs a
// single nil check and no allocation.
func WithTrace() Option { return func(c *Config) error { c.Trace = true; return nil } }

// WithConfig replaces the whole configuration with cfg, for callers that
// already hold a Config value. Options after it still apply. A Config that
// names no deployment at all (zero workers, cores and stealing mode) keeps
// the default stealing mode instead of switching stealing off.
func WithConfig(cfg Config) Option {
	return func(c *Config) error {
		if cfg.Workers == 0 && cfg.CoresPerWorker == 0 && cfg.WS == WSNone {
			cfg.WS = c.WS
		}
		*c = cfg
		return nil
	}
}

// NewContext starts a runtime configured by the given options:
//
//	fractal.NewContext(fractal.WithWorkers(4), fractal.WithCores(8))
//
// With no options: one worker, one core, hierarchical work stealing.
func NewContext(opts ...Option) (*Context, error) {
	cfg := Config{WS: WSBoth}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	rt, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Context{rt: rt}, nil
}

// Close shuts the runtime down.
func (c *Context) Close() { c.rt.Close() }

// Config returns the effective runtime configuration.
func (c *Context) Config() Config { return c.rt.Config() }

// ListenAddr returns the bound address of the master listener of a
// WithListenAddr context ("" otherwise); with ":0" this is how the actual
// port is learned.
func (c *Context) ListenAddr() string { return c.rt.ListenAddr() }

// AwaitWorkers blocks until at least n worker processes have registered
// with a WithListenAddr context, or ctx ends.
func (c *Context) AwaitWorkers(ctx context.Context, n int) error {
	return c.rt.AwaitWorkers(ctx, n)
}

// RunSpec executes a serializable job spec: the registered application is
// materialized against the spec's graph file and arguments and run through
// the step protocol. It works on every context — in-process ones build and
// run the job locally; WithListenAddr masters ship the spec to the
// registered worker processes inside every step start. The graph is loaded
// through the same per-context cache as LoadGraph, so naming an already
// loaded file costs nothing. env carries aggregations from previous jobs
// the workflow reads (nil for none). Graph.RunSpec is the form for a graph handle. It queues
// behind a running job.
func (c *Context) RunSpec(ctx context.Context, spec JobSpec, env *Aggregations) (*Result, error) {
	return c.rt.RunSpec(ctx, spec, env)
}

// LoadGraph loads a graph file (operator I1 of Figure 2). The format is
// chosen by extension: ".graph" adjacency list, ".el" labeled edge list, or
// ".fgr" prebuilt binary CSR (memory-mapped instead of parsed; produce one
// with ConvertGraph or `fractal -convert`). For the text formats a
// "<path>.kw" keyword sidecar is applied when present. A context loads each
// path once: later LoadGraph and RunSpec calls naming it share the graph.
// The handle remembers the path, which is what lets a WithListenAddr master
// ship jobs over it (Graph.RunSpec).
func (c *Context) LoadGraph(path string) (*Graph, error) {
	g, err := c.rt.LoadGraph(path)
	if err != nil {
		return nil, fmt.Errorf("fractal: loading %s: %w", path, err)
	}
	return &Graph{ctx: c, g: g, path: path}, nil
}

// ConvertGraph loads the graph file at inPath (any format LoadGraph
// accepts) and writes it to outPath in the binary .fgr format, atomically.
// Loading an .fgr file is a single mmap plus a validation pass — no parse,
// no per-vertex allocations — and every process mapping the same file
// shares one physical copy of the graph's CSR arrays. It returns the
// converted graph for inspection (callers typically print its Stats).
func ConvertGraph(inPath, outPath string) (*RawGraph, error) {
	g, err := graph.LoadFile(inPath)
	if err != nil {
		return nil, fmt.Errorf("fractal: loading %s: %w", inPath, err)
	}
	if err := graph.SaveFGR(outPath, g); err != nil {
		return nil, fmt.Errorf("fractal: writing %s: %w", outPath, err)
	}
	return g, nil
}

// FromGraph wraps an in-memory graph as a fractal graph.
func (c *Context) FromGraph(g *graph.Graph) *Graph { return &Graph{ctx: c, g: g} }

// NewBuildGraph wraps an in-memory graph as a fractal graph with no
// context: fractoids derived from it can compose workflows and export them
// with Fractoid.Job, but cannot execute. Spec builders (SpecBuilder.Build)
// use it to construct jobs inside worker processes, where no Context exists.
func NewBuildGraph(g *graph.Graph) *Graph { return &Graph{g: g} }

// Graph is a fractal graph: the handle fractoids are derived from. It also
// exposes the graph reduction operators of Figure 10.
type Graph struct {
	ctx *Context
	g   *graph.Graph
	// path is the file LoadGraph read the graph from; empty for in-memory
	// graphs (FromGraph, NewBuildGraph, VFilter/EFilter reductions).
	path string
}

// Raw returns the underlying immutable graph.
func (fg *Graph) Raw() *graph.Graph { return fg.g }

// RunSpec runs the registered application app with the given arguments over
// this graph — the one way the application drivers of internal/apps execute
// a kernel. On an in-process context the app's SpecBuilder builds the job
// against the graph in memory, so any handle works; on a WithListenAddr
// master the spec ships to the worker processes by the path LoadGraph read,
// and a handle without one (FromGraph, a VFilter/EFilter reduction) is a
// *ConfigError. env carries aggregations from previous jobs the workflow
// reads (nil for none). Like every execution method, it needs a handle that
// has a Context (not a NewBuildGraph one).
func (fg *Graph) RunSpec(ctx context.Context, app string, args map[string]string, env *Aggregations) (*Result, error) {
	spec := JobSpec{App: app, Graph: fg.path, Args: args}
	return fg.ctx.rt.RunSpecOn(ctx, spec, fg.g, env)
}

// VFractoid derives an empty vertex-induced fractoid (operator B1).
func (fg *Graph) VFractoid() *Fractoid {
	return &Fractoid{fg: fg, kind: subgraph.VertexInduced}
}

// EFractoid derives an empty edge-induced fractoid (operator B2).
func (fg *Graph) EFractoid() *Fractoid {
	return &Fractoid{fg: fg, kind: subgraph.EdgeInduced}
}

// PFractoid derives an empty pattern-induced fractoid for query pattern p
// (operator B3), compiling a plan on the spot — a convenience wrapper over
// CompilePlan + PFractoidPlan. The error reports unusable patterns (empty,
// disconnected).
func (fg *Graph) PFractoid(p *Pattern) *Fractoid {
	plan, err := CompilePlan(p)
	if err != nil {
		return &Fractoid{fg: fg, err: err}
	}
	return fg.PFractoidPlan(plan)
}

// PFractoidPlan derives an empty pattern-induced fractoid from an already
// compiled plan, so one compilation is reusable across graphs and runs
// (the multi-plan motif engine compiles each pattern once per k). A nil
// plan yields a fractoid whose Err is set.
func (fg *Graph) PFractoidPlan(plan *Plan) *Fractoid {
	if plan == nil {
		return &Fractoid{fg: fg, err: fmt.Errorf("fractal: PFractoidPlan requires a non-nil plan")}
	}
	return &Fractoid{fg: fg, kind: subgraph.PatternInduced, plan: plan}
}

// VFractoidWith derives a vertex-induced fractoid using a custom subgraph
// enumerator (Appendix B of the paper; see subgraph.CustomExtender). The
// prototype is cloned per execution core.
func (fg *Graph) VFractoidWith(custom subgraph.CustomExtender) *Fractoid {
	return &Fractoid{fg: fg, kind: subgraph.VertexInduced, custom: custom}
}

// VFilter materializes the reduced graph keeping the vertices that pass f
// (operator R1, Section 4.3).
func (fg *Graph) VFilter(f func(v graph.VertexID, g *graph.Graph) bool) *Graph {
	return &Graph{ctx: fg.ctx, g: graph.Reduce(fg.g, f, nil)}
}

// EFilter materializes the reduced graph keeping the edges that pass f
// (operator R2, Section 4.3).
func (fg *Graph) EFilter(f func(e graph.EdgeID, g *graph.Graph) bool) *Graph {
	return &Graph{ctx: fg.ctx, g: graph.Reduce(fg.g, nil, f)}
}

// Stats returns the Table 1 summary of the graph.
func (fg *Graph) Stats() graph.Stats { return fg.g.Stats() }

// PatternOf returns the canonical pattern key of an embedding: the code
// string (a valid aggregation key) and the canonical position of every
// embedding vertex. It is the hot-path call: the embedding's per-core class
// memo (Subgraph.Class) answers it without building a Pattern, and runs the
// canonical-labelling search once per distinct quick pattern. Perm is the
// memo's own storage, valid until e is extended or reverted: copy it to keep
// it past the callback.
func (c *Context) PatternOf(e *Subgraph) pattern.Canon { return e.Class().Canon }

// PatternCanon canonicalizes an explicit pattern. It runs the labelling
// search on every call; for an embedding's own pattern use PatternOf.
func (c *Context) PatternCanon(p *Pattern) pattern.Canon { return pattern.Classify(p).Canon }

// PatternRep returns the shared canonical representative of e's pattern
// class: every embedding of the same isomorphism class, on every core of the
// process, yields the identical *Pattern (relabeled to canonical vertex
// order), which makes "first pattern wins" reductions independent of
// embedding arrival and merge order. Aggregation value functions should
// carry this pattern rather than the embedding's own numbering; like
// PatternOf it goes through the embedding's class memo.
func (c *Context) PatternRep(e *Subgraph) *Pattern { return e.Class().Rep }

// PatternRepOf returns the shared canonical representative of an explicit
// pattern's isomorphism class (the PatternRep analog for patterns built
// outside an embedding, e.g. from FromEmbedding or generated pattern sets).
func (c *Context) PatternRepOf(p *Pattern) *Pattern { return pattern.Classify(p).Rep }

// MNISupport builds the minimum image-based support contribution of a
// single embedding, aligned by canonical position (the value function of
// the paper's FSM listing). The contribution is a pooled value that carries
// the class's shared representative pattern; it is meant to flow directly
// into an aggregation (Aggregate's value function), whose first store keeps
// it and whose reduction reclaims it — the FSM hot loop allocates nothing
// per embedding. Handed to an aggregation or to another support's Aggregate,
// it belongs to that: a support kept outside an aggregation is accumulated
// from a nil *DomainSupport, whose Aggregate returns the first contribution.
func (c *Context) MNISupport(e *Subgraph, threshold int64) *DomainSupport {
	cl := e.Class()
	return agg.ScratchDomainSupport(cl.Rep, threshold, e.Vertices(), cl.Perm)
}

// CliqueFilter is the local clique check of Listing 2: every vertex of the
// subgraph is adjacent to every other. On a multigraph parallel edges count
// once, and the check reads neighbor lists only, so it builds no edge-id
// index.
func CliqueFilter(e *Subgraph) bool { return subgraph.IsClique(e) }
