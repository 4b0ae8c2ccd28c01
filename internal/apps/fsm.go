package apps

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/sched"
)

// FSMResult is the outcome of frequent subgraph mining.
type FSMResult struct {
	// Frequent maps canonical pattern codes to their supports, across all
	// mined sizes.
	Frequent map[string]*fractal.DomainSupport
	// PerLevel[i] is the number of frequent patterns with i+1 edges.
	PerLevel []int
	// Steps accumulates the per-step reports of every executed fractoid.
	Steps []fractal.StepReport
	// Last is the result of the final executed fractoid (the deepest
	// level), carrying its run-level observability report.
	Last *fractal.Result
}

// MaxFSMEdges is the largest FSMOptions.MaxEdges: an embedding of that many
// edges can span one more vertex, a pattern's limit.
const MaxFSMEdges = pattern.MaxVertices - 1

// MaxEdgesError reports an FSMOptions.MaxEdges outside [0, MaxFSMEdges].
type MaxEdgesError struct{ Got int }

func (e *MaxEdgesError) Error() string {
	return fmt.Sprintf("apps: fsm mines patterns of 1 to %d edges, got MaxEdges=%d", MaxFSMEdges, e.Got)
}

// FSMOptions tunes the FSM kernel.
type FSMOptions struct {
	// MaxEdges bounds the size of mined patterns (the paper's executions
	// are support-bounded; a bound keeps benchmark runs finite when the
	// support threshold is permissive). 0 means the default, 3; a negative
	// value or one above MaxFSMEdges fails FSM with a *MaxEdgesError.
	MaxEdges int
}

// fsmBuilder is one level of the frequent subgraph mining loop (Listing 3 of
// the paper). Args: "support" (the MNI threshold) and "level" (how many
// edges the mined patterns have). A level-L job is a from-scratch pipeline
// (fsmCandidates): expand, keep the classes frequent1 holds, expand, …,
// refuse the classes with a sub-pattern outside frequent(L-1), aggregate
// supportL. It reads frequent1..frequent(L-1) from its environment, each
// one level's frequent pattern codes and their MNI supports: FSM derives
// them from the support aggregations and threads them between jobs, and a
// master ships them with the step starts that read them. Every level past
// the first enumerates frequentEdgeGraph, the job's Reduce: an in-process
// runtime and each worker process derive it once per job from the loaded
// graph and the support; a master, which enumerates nothing, never does.
// Each level's entries are its own because the engine reuses — never
// recomputes — environment aggregations (Section 4.1).
type fsmBuilder struct{}

func fsmSupName(level int) string  { return fmt.Sprintf("support%d", level) }
func fsmFreqName(level int) string { return fmt.Sprintf("frequent%d", level) }

func (fsmBuilder) Build(spec fractal.JobSpec, g *graph.Graph) (sched.Job, error) {
	level, err := specInt(spec, "level", 1, MaxFSMEdges)
	if err != nil {
		return sched.Job{}, err
	}
	support, err := specInt(spec, "support", 1, math.MaxInt)
	if err != nil {
		return sched.Job{}, err
	}
	minSupport := int64(support)
	job, err := fractal.Aggregate(fsmCandidates(fractal.NewBuildGraph(g), level), fsmSupName(level),
		func(e *fractal.Subgraph) string { return e.Class().Code },
		func(e *fractal.Subgraph) *agg.DomainSupport {
			cl := e.Class()
			return agg.ScratchDomainSupport(cl.Rep, minSupport, e.Vertices(), cl.Perm)
		},
		agg.ReduceDomainSupport,
		func(k string, v *agg.DomainSupport) bool { return v.HasEnoughSupport() }).Job()
	if err == nil && level > 1 {
		job.Reduce = func(g *graph.Graph) *graph.Graph { return frequentEdgeGraph(g, minSupport) }
	}
	return job, err
}

// fsmCandidates is a level's workflow up to its aggregation: the embeddings
// with level edges whose every prefix is frequent and whose class has no
// infrequent sub-pattern. Both decisions are per class: a class filter on
// each earlier level's frequent codes, and the level-wise pruning filter on
// the last one's.
func fsmCandidates(g *fractal.Graph, level int) *fractal.Fractoid {
	f := g.EFractoid().Expand(1)
	for l := 1; l < level; l++ {
		f = fractal.FilterAggClass(f, fsmFreqName(l),
			func(cl *fractal.PatternClass, a *agg.Aggregation[string, int64]) bool {
				return a.Contains(cl.Code)
			})
		f = f.Expand(1)
	}
	if level > 1 {
		f = fractal.FilterAggSubPatterns[int64](f, fsmFreqName(level-1))
	}
	return f
}

// FSM mines the frequent subgraph patterns of g under the minimum
// image-based support threshold minSupport: one fsmBuilder job per level,
// each level's environment (the accumulated support aggregations and the
// frequent codes derived from them) threaded into the next, until a level
// finds nothing frequent or MaxEdges is reached. A level refuses a class
// with an infrequent sub-pattern before it aggregates any of its embeddings
// (FilterAggSubPatterns), so what it reports is the level-wise closure of
// Listing 3's result: a pattern is kept iff Listing 3 keeps it and every
// connected sub-pattern of it with one edge fewer was kept — under an
// anti-monotone support, Listing 3's result itself.
func FSM(ctx context.Context, fc *fractal.Context, g *fractal.Graph, minSupport int64, opts FSMOptions) (*FSMResult, error) {
	if opts.MaxEdges < 0 || opts.MaxEdges > MaxFSMEdges {
		return nil, &MaxEdgesError{Got: opts.MaxEdges}
	}
	if opts.MaxEdges == 0 {
		opts.MaxEdges = 3
	}
	out := &FSMResult{Frequent: map[string]*fractal.DomainSupport{}}
	var env *fractal.Aggregations
	for level := 1; level <= opts.MaxEdges; level++ {
		res, err := g.RunSpec(ctx, AppFSM, map[string]string{
			"support": strconv.FormatInt(minSupport, 10),
			"level":   strconv.Itoa(level),
		}, env)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, res.Steps...)
		out.Last = res
		env = res.Aggregations
		lvl, err := agg.Typed[string, *agg.DomainSupport](env, fsmSupName(level))
		if err != nil {
			return nil, err
		}
		env.Put(fsmFreqName(level), record(out, lvl))
		if lvl.Len() == 0 {
			break
		}
	}
	return out, nil
}

// record adds a level's frequent patterns to out and returns what later
// levels read of them: each code and its MNI support.
func record(out *FSMResult, lvl *agg.Aggregation[string, *agg.DomainSupport]) *agg.Aggregation[string, int64] {
	freq := agg.New[string, int64](agg.MaxInt64)
	lvl.Range(func(k string, v *agg.DomainSupport) bool {
		out.Frequent[k] = v
		freq.Add(k, v.Support())
		return true
	})
	out.PerLevel = append(out.PerLevel, freq.Len())
	return freq
}

// frequentEdgeGraph is the graph levels past the first mine (Section 4.3's
// reduction): g without the edges no frequent pattern can hold. An edge goes
// when its one-edge pattern's MNI support is below minSupport. That support is decided once per (vertex
// label, vertex label, edge label) triple: the fewer of the distinct
// vertices on either side of the triple's edges, one side when the two
// labels are equal. Such an edge's label is a pattern edge of every class
// that holds it, with no more images on its ends than the triple has, so the
// class is infrequent; one that folds the edge into a parallel twin is
// refused by every level past the first. Only edges go, in order, so every
// surviving embedding keeps its vertices, their order and its class.
func frequentEdgeGraph(raw *graph.Graph, minSupport int64) *graph.Graph {
	type ends struct {
		last graph.VertexID // 1 + the last vertex counted
		n    [2]int64       // distinct vertices with the triple's first, second label
	}
	triple := func(gr *graph.Graph, id graph.EdgeID) [3]graph.Label {
		u, v := gr.EdgeEndpoints(id)
		lu, lv := gr.VertexLabel(u), gr.VertexLabel(v)
		return [3]graph.Label{min(lu, lv), max(lu, lv), gr.EdgeLabel(id)}
	}
	triples := map[[3]graph.Label]ends{}
	for v := graph.VertexID(0); int(v) < raw.NumVertices(); v++ {
		lv := raw.VertexLabel(v)
		for _, id := range raw.IncidentEdges(v) {
			t := triple(raw, id)
			if c := triples[t]; c.last != v+1 {
				c.last = v + 1
				for side, l := range t[:2] {
					if l == lv {
						c.n[side]++
					}
				}
				triples[t] = c
			}
		}
	}
	return graph.Reduce(raw, nil, func(id graph.EdgeID, gr *graph.Graph) bool {
		c := triples[triple(gr, id)]
		return min(c.n[0], c.n[1]) >= minSupport
	})
}
