// Serializable job specifications. An in-process Job carries live Go objects
// (the graph, compiled plans, workflow closures) that cannot cross a process
// boundary; a JobSpec names the same job symbolically — a registered
// application, a graph path, string arguments — so master and worker
// processes each materialize an identical Job from it. This is the role
// closure serialization plays for the paper's Spark implementation; here the
// closed set of registered apps replaces arbitrary closures.
package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/rpc"
)

// JobSpec names a job in a form that crosses process boundaries: which
// registered application to run, over which graph file, with which
// arguments. Both sides build the concrete Job with the app's SpecBuilder,
// whose determinism (same spec + same graph → identical workflow and step
// list) is what makes distributed results bit-identical to in-process ones.
type JobSpec struct {
	// App is the registered application name (RegisterApp).
	App string
	// Graph is the path of the input graph, loaded (and cached) by every
	// participant. The file must be readable at the same path on every
	// machine — shipped graphs are out of scope here. A ".fgr" path names a
	// prebuilt binary graph (see graph.SaveFGR): participants memory-map it
	// instead of parsing, and co-located worker processes share one physical
	// copy of the CSR arrays.
	Graph string
	// Args parameterizes the app (e.g. {"k": "4"}). Encoded sorted by key.
	Args map[string]string
}

// Arg returns the named argument ("" when absent).
func (s JobSpec) Arg(key string) string { return s.Args[key] }

// SpecBuilder materializes jobs for one registered application.
// Implementations must be deterministic and safe for concurrent use.
type SpecBuilder interface {
	// Build constructs the job against a loaded graph. The aggregations its
	// workflow reads come from the environment the job runs against (Job.Env
	// on the submitting side; on a worker, the step starts carry them).
	Build(spec JobSpec, g *graph.Graph) (Job, error)
}

var (
	appsMu sync.RWMutex
	apps   = map[string]SpecBuilder{}
)

// RegisterApp installs the builder for an application name; both the master
// and every worker binary must register the same apps (typically from an
// init function of the package defining the app). Re-registering a name
// panics: two builders for one name means results depend on link order.
func RegisterApp(name string, b SpecBuilder) {
	appsMu.Lock()
	defer appsMu.Unlock()
	if name == "" || b == nil {
		panic("sched: RegisterApp requires a name and a builder")
	}
	if _, dup := apps[name]; dup {
		panic(fmt.Sprintf("sched: app %q registered twice", name))
	}
	apps[name] = b
}

// builderFor resolves a registered application.
func builderFor(name string) (SpecBuilder, error) {
	appsMu.RLock()
	defer appsMu.RUnlock()
	b, ok := apps[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown app %q (not registered in this binary)", name)
	}
	return b, nil
}

// specToWire encodes a spec for the wire, with canonical (sorted) argument
// order, together with the names of the environment the job runs against.
func specToWire(spec JobSpec, env []string) wireSpec {
	m := wireSpec{App: spec.App, Graph: spec.Graph, Env: env}
	keys := make([]string, 0, len(spec.Args))
	for k := range spec.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.Args = append(m.Args, kvPair{K: k, V: spec.Args[k]})
	}
	return m
}

// wireToSpec is the wire inverse of specToWire.
func wireToSpec(m wireSpec) JobSpec {
	spec := JobSpec{App: m.App, Graph: m.Graph}
	if len(m.Args) > 0 {
		spec.Args = make(map[string]string, len(m.Args))
		for _, kv := range m.Args {
			spec.Args[kv.K] = kv.V
		}
	}
	return spec
}

// graphCache loads each graph file once per process. Jobs in a sequence
// (FSM's per-level specs, motifs' per-pattern specs) reuse the loaded graph.
type graphCache struct {
	mu sync.Mutex
	m  map[string]*graph.Graph
}

func (c *graphCache) load(path string) (*graph.Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.m[path]; ok {
		return g, nil
	}
	g, err := graph.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = map[string]*graph.Graph{}
	}
	c.m[path] = g
	return g, nil
}

// LoadGraph loads a graph file through the runtime's cache, so a graph the
// caller loaded up front and the graph a later RunSpec names by the same path
// are one object: one load per process.
func (r *Runtime) LoadGraph(path string) (*graph.Graph, error) { return r.graphs.load(path) }

// RunSpec executes a serializable job spec. It works in every deployment:
// an in-process runtime builds the job locally and runs it as Run does, and
// a master-mode runtime waits for a registered worker and drives the step
// protocol across processes, each step start carrying the spec — which a
// worker installs from the first step start of the job it receives — and
// the environment aggregations the step reads. env carries aggregations
// from previous jobs the workflow reads (nil for none); the result's
// Aggregations hold it plus everything the job computed, exactly as with
// Run, and it waits for a running job as Run does.
func (r *Runtime) RunSpec(ctx context.Context, spec JobSpec, env *agg.Registry) (*Result, error) {
	return r.RunSpecOn(ctx, spec, nil, env)
}

// RunSpecOn is RunSpec against an already loaded graph. g is what spec.Graph
// names (nil loads it through the cache), or — in-process only — any
// in-memory graph (a reduction, a generated graph) with spec.Graph left
// empty. A master ships graphs by path, so there a path-less graph is a
// *ConfigError.
func (r *Runtime) RunSpecOn(ctx context.Context, spec JobSpec, g *graph.Graph, env *agg.Registry) (*Result, error) {
	builder, err := builderFor(spec.App)
	if err != nil {
		return nil, err
	}
	if r.reg != nil && spec.Graph == "" {
		return nil, NotShippable(fmt.Sprintf("app %q over an in-memory graph (load it from a file with LoadGraph)", spec.App))
	}
	if g == nil {
		if g, err = r.graphs.load(spec.Graph); err != nil {
			return nil, fmt.Errorf("sched: loading graph %q: %w", spec.Graph, err)
		}
	}
	job, err := builder.Build(spec, g)
	if err != nil {
		return nil, fmt.Errorf("sched: building %q: %w", spec.App, err)
	}
	job.Env = env
	var ship *JobSpec
	if r.reg != nil {
		ship = &spec
	}
	return r.runJob(ctx, job, ship)
}

// NotShippable is the error of a master-mode runtime (or of an application
// driver on its behalf) asked to run something its workers cannot rebuild
// from a spec: closures and in-memory graphs do not cross a process
// boundary.
func NotShippable(what string) error {
	return &ConfigError{Field: "ListenAddr", Reason: "is set, and a master ships jobs to its workers as specs over graph files: it cannot run " + what}
}

// ServeWorkerOptions configures a worker process (ServeWorker).
type ServeWorkerOptions struct {
	// ListenAddr is the worker's own listener address, for its peers and the
	// master's redial after a reset (default "127.0.0.1:0"; use ":0" to serve
	// remote peers: a wildcard host registers the IP the worker reaches the
	// master from).
	ListenAddr string
	// FaultInjector, when non-nil, wraps the worker's transport exactly as
	// Config.FaultInjector wraps in-process ones (chaos tests).
	FaultInjector rpc.FaultInjector
}
