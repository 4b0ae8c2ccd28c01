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
	"fractal/internal/subgraph"
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
	// GraphReduction enables the transparent Section 4.3 optimization:
	// after the bootstrap level, the input graph is reduced to the edges
	// whose single-edge pattern is frequent, since no infrequent edge can
	// participate in a frequent subgraph (anti-monotonicity). In-process
	// contexts only.
	GraphReduction bool
}

// fsmBuilder is one level of the frequent subgraph mining loop (Listing 3 of
// the paper). Args: "support" (the MNI threshold) and "level" (how many
// edges the mined patterns have). A level-L job is a from-scratch pipeline
// (fsmCandidates): expand, filter by every earlier level's support
// aggregation — environment entries named support1..support(L-1), threaded
// between jobs by FSM and shipped to worker processes over the wire — expand,
// …, refuse the classes with a sub-pattern outside support(L-1), aggregate
// supportL.
// Each level's support lives in its own environment entry because the
// engine reuses — never recomputes — environment aggregations (Section 4.1).
type fsmBuilder struct{}

func fsmSupName(level int) string { return fmt.Sprintf("support%d", level) }

func (fsmBuilder) EnvProtos(spec fractal.JobSpec) (map[string]agg.Store, error) {
	level, err := specInt(spec, "level", 1, MaxFSMEdges)
	if err != nil {
		return nil, err
	}
	protos := map[string]agg.Store{}
	for l := 1; l < level; l++ {
		protos[fsmSupName(l)] = agg.New[string, *agg.DomainSupport](agg.ReduceDomainSupport)
	}
	return protos, nil
}

func (fsmBuilder) Build(spec fractal.JobSpec, g *graph.Graph, _ *agg.Registry) (sched.Job, error) {
	level, err := specInt(spec, "level", 1, MaxFSMEdges)
	if err != nil {
		return sched.Job{}, err
	}
	support, err := specInt(spec, "support", 1, math.MaxInt)
	if err != nil {
		return sched.Job{}, err
	}
	minSupport := int64(support)
	return fractal.Aggregate(fsmCandidates(fractal.NewBuildGraph(g), level), fsmSupName(level),
		func(e *fractal.Subgraph) string { return e.Class().Code },
		func(e *fractal.Subgraph) *agg.DomainSupport {
			cl := e.Class()
			return agg.ScratchDomainSupport(cl.Rep, minSupport, e.Vertices(), cl.Perm)
		},
		agg.ReduceDomainSupport,
		func(k string, v *agg.DomainSupport) bool { return v.HasEnoughSupport() }).Job()
}

// fsmCandidates is a level's workflow up to its aggregation: the embeddings
// with level edges whose every prefix is frequent and whose class has no
// infrequent sub-pattern. Both decisions are per class: a class filter on
// each earlier level's supports, and the level-wise pruning filter on the
// last one's.
func fsmCandidates(g *fractal.Graph, level int) *fractal.Fractoid {
	f := g.EFractoid().Expand(1)
	for l := 1; l < level; l++ {
		f = fractal.FilterAggClass(f, fsmSupName(l),
			func(cl *fractal.PatternClass, a *agg.Aggregation[string, *agg.DomainSupport]) bool {
				return a.Contains(cl.Code)
			})
		f = f.Expand(1)
	}
	if level > 1 {
		f = fractal.FilterAggSubPatterns[*agg.DomainSupport](f, fsmSupName(level-1))
	}
	return f
}

// FSM mines the frequent subgraph patterns of g under the minimum
// image-based support threshold minSupport: one fsmBuilder job per level,
// each level's environment (the accumulated support aggregations) threaded
// into the next, until a level finds nothing frequent or MaxEdges is
// reached. A level refuses a class with an infrequent sub-pattern before it
// aggregates any of its embeddings (FilterAggSubPatterns), so what it reports
// is the level-wise closure of Listing 3's result: a pattern is kept iff
// Listing 3 keeps it and every connected sub-pattern of it with one edge
// fewer was kept — under an anti-monotone support, Listing 3's result
// itself.
func FSM(ctx context.Context, fc *fractal.Context, g *fractal.Graph, minSupport int64, opts FSMOptions) (*FSMResult, error) {
	if opts.MaxEdges < 0 || opts.MaxEdges > MaxFSMEdges {
		return nil, &MaxEdgesError{Got: opts.MaxEdges}
	}
	if opts.MaxEdges == 0 {
		opts.MaxEdges = 3
	}
	if opts.GraphReduction {
		// The reduced graph exists only in this process's memory.
		if err := specOnly(fc, "FSM graph reduction"); err != nil {
			return nil, err
		}
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
		record(out, lvl)
		if lvl.Len() == 0 {
			break
		}
		if level == 1 && opts.GraphReduction {
			g = reduceToFrequentEdges(g, lvl)
		}
	}
	return out, nil
}

func record(out *FSMResult, lvl *agg.Aggregation[string, *agg.DomainSupport]) {
	n := 0
	lvl.Range(func(k string, v *agg.DomainSupport) bool {
		out.Frequent[k] = v
		n++
		return true
	})
	out.PerLevel = append(out.PerLevel, n)
}

// reduceToFrequentEdges applies the transparent FSM graph reduction: keep
// only edges whose single-edge pattern is frequent, then drop isolated
// vertices. By anti-monotonicity of the MNI support, no dropped edge can
// participate in any frequent subgraph. An edge's code is that of its
// one-edge embedding, which is what the bootstrap level aggregated.
func reduceToFrequentEdges(g *fractal.Graph, level1 *agg.Aggregation[string, *agg.DomainSupport]) *fractal.Graph {
	emb := subgraph.New(g.Raw(), subgraph.EdgeInduced, nil)
	reduced := g.EFilter(func(id graph.EdgeID, _ *graph.Graph) bool {
		emb.Reset()
		emb.Push(subgraph.Word(id))
		return level1.Contains(emb.Class().Code)
	})
	return reduced.VFilter(func(v graph.VertexID, gr *graph.Graph) bool {
		return gr.Degree(v) > 0
	})
}
