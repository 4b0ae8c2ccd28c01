package fractal

import (
	"context"
	"fmt"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/step"
	"fractal/internal/subgraph"
	"fractal/internal/wire"
)

// DecompPlan is a compiled pattern decomposition: terms over local counts
// (degrees, common neighbors of vertex pairs, triangles through a vertex)
// whose total, divided by the pattern's automorphism count, is its
// non-induced subgraph count, evaluated by one sweep of a per-vertex kernel
// instead of enumeration. Compile one with CompileDecomp and run it with
// Graph.DecompCountCtx; DecompPlan.Explain renders it human-readably. See
// DESIGN.md §14.
type DecompPlan = pattern.DecompPlan

// CompileDecomp compiles p's decomposition: the first cut — a vertex, an
// edge, two non-adjacent vertices — whose removal leaves only leaves. The
// error reports patterns with no such cut, non-uniform labels, or unusable
// shapes — callers fall back to CompilePlan enumeration (or let
// ChooseEngine decide).
func CompileDecomp(p *Pattern) (*DecompPlan, error) { return pattern.Decompose(p) }

// EngineChoice pairs the compiled enumeration plan and (when a cut
// matched) the decomposition for one pattern, with the cost model's pick
// and its stable human-readable reason.
type EngineChoice = pattern.Choice

// ChooseEngine compiles both engines for p and picks the cheaper under the
// shared symbolic cost model — the auto-selection behind -engine=auto.
func ChooseEngine(p *Pattern) (*EngineChoice, error) { return pattern.Choose(p) }

// DecompCountCtx evaluates a decomposition plan against the graph and
// returns the pattern's non-induced subgraph count — the same number
// PFractoid(p).Expand(n).CountCtx(ctx) enumerates, computed from local
// counts. The graph must carry uniform labels (the sweep is label-blind); a
// uniform-labeled graph whose labels contradict the pattern's yields zero.
func (fg *Graph) DecompCountCtx(ctx context.Context, dp *DecompPlan) (int64, *Result, error) {
	counts, res, err := fg.EvalDecomps(ctx, []*DecompPlan{dp})
	if err != nil {
		return 0, res, err
	}
	return counts[0], res, nil
}

// EvalDecomps evaluates several decomposition plans in ONE shared sweep —
// the fleet form behind the motifs engine, where the sweep is paid once and
// every decomposable pattern's terms ride it. Returns the non-induced
// count per plan, index-aligned; a nil plan, or one whose labels contradict
// the graph's uniform labels, counts zero, so a fleet passes its patterns'
// plans with gaps where no cut matched.
//
// The sweep is a fractal step like any other: the registered app
// "decomp-sweep" runs the local-count kernel once per root vertex on the
// runtime's cores, with work stealing, cancellation, step retries and the
// run report, in process and on a WithListenAddr master alike. It names the
// plans by their patterns, so every process compiles each with
// CompileDecomp.
func (fg *Graph) EvalDecomps(ctx context.Context, plans []*DecompPlan) ([]int64, *Result, error) {
	vl, el, ok := fg.g.UniformLabels()
	if !ok {
		return nil, nil, notUniform(fg.g)
	}
	var live []int
	for i, dp := range plans {
		if dp != nil && decompLabelsMatch(dp.P, vl, el) {
			live = append(live, i)
		}
	}
	var w wire.Writer
	w.Count(len(live))
	for _, i := range live {
		w.B = plans[i].P.AppendBinary(w.B)
	}
	args := map[string]string{"patterns": string(w.B)}
	res, err := fg.RunSpec(ctx, appSweep, args, nil)
	if err != nil {
		return nil, res, err
	}
	sw, err := parseSweep(args["patterns"]) // the layout every Build derived
	if err != nil {
		return nil, res, err
	}
	store, ok := res.Aggregations.Get(sweepAgg)
	if !ok {
		return nil, res, fmt.Errorf("fractal: the decomposition sweep left no sums")
	}
	sums := store.(*agg.Int64Sums).Sums
	counts := make([]int64, len(plans))
	for i, dp := range sw.plans {
		termSums := make([]int64, len(dp.Terms))
		for j, s := range sw.slots[i] {
			termSums[j] = sums[s]
		}
		if counts[live[i]], err = dp.Eval(termSums); err != nil {
			return nil, res, fmt.Errorf("fractal: %w", err)
		}
	}
	return counts, res, nil
}

// appSweep is the registered name of the decomposition sweep; its one
// argument, "patterns", is a count followed by the patterns' wire forms.
const appSweep = "decomp-sweep"

// sweepAgg names the sweep's vector of term sums. The NUL prefix keeps it
// out of any user namespace, like step.CountAgg.
const sweepAgg = "\x00fractal.decomp"

func init() { RegisterApp(appSweep, sweepBuilder{}) }

// sweepBuilder builds the decomposition sweep: VFractoid().Expand(1), one
// subgraph per root vertex, and an agg.Int64Sums aggregation whose Emit runs
// the local-count kernel (subgraph.LocalTerms.At) for that root into the
// core's vector, charging the adjacency elements it read to the step's EC.
type sweepBuilder struct{}

func (sweepBuilder) Build(spec JobSpec, g *RawGraph) (Job, error) {
	sw, err := parseSweep(spec.Arg("patterns"))
	if err != nil {
		return Job{}, err
	}
	if _, _, ok := g.UniformLabels(); !ok {
		return Job{}, notUniform(g)
	}
	terms := &sw.terms
	sums := &step.AggSpec{
		Name:  sweepAgg,
		Proto: agg.NewInt64Sums(terms.Arity()),
		Emit: func(e *subgraph.Embedding, local agg.Store) {
			e.Charge(terms.At(e, e.Vertices()[0], local.(*agg.Int64Sums).Sums))
		},
	}
	return NewBuildGraph(g).VFractoid().Expand(1).derive(step.AggregateP(sums)).Job()
}

// sweep is a decoded sweep spec: the decomposition of every pattern it
// names, and their terms laid out in one vector of sums — every Pair term,
// then every Vertex term, then every Far term, each group in plan and term
// order.
type sweep struct {
	plans []*DecompPlan
	terms subgraph.LocalTerms
	slots [][]int // slots[i][j] is the vector index of plans[i].Terms[j]
}

func parseSweep(arg string) (*sweep, error) {
	r := wire.NewReader([]byte(arg))
	sw := &sweep{}
	for n := r.Count(); len(sw.plans) < n; {
		p := pattern.ReadBinary(r)
		if r.Err() != nil {
			break
		}
		dp, err := pattern.Decompose(p)
		if err != nil {
			return nil, fmt.Errorf("fractal: decomposition sweep: %w", err)
		}
		sw.plans = append(sw.plans, dp)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("fractal: decomposition sweep patterns: %w", err)
	}
	sw.slots = make([][]int, len(sw.plans))
	for i, dp := range sw.plans {
		sw.slots[i] = make([]int, len(dp.Terms))
	}
	vertexTri, farDegree := false, false
	for pass := range 3 {
		for i, dp := range sw.plans {
			for j, t := range dp.Terms {
				switch {
				case pass == 0 && t.Pair():
					sw.terms.Pair = append(sw.terms.Pair, t.EvalPair)
				case pass == 1 && t.Cut == 1:
					sw.terms.Vertex = append(sw.terms.Vertex, t.EvalVertex)
					vertexTri = vertexTri || t.NeedsTri()
				case pass == 2 && t.Far():
					sw.terms.Far = append(sw.terms.Far, t.EvalFar)
					farDegree = farDegree || t.U > 0 // U ≥ V: leaves that need degrees
				default:
					continue
				}
				sw.slots[i][j] = sw.terms.Arity() - 1
				sw.terms.NeedTri = sw.terms.NeedTri || t.NeedsTri()
			}
		}
	}
	sw.terms.NoVertexTri, sw.terms.NoFarDegree = !vertexTri, !farDegree
	return sw, nil
}

// notUniform is the error of a sweep over a graph with mixed labels.
func notUniform(g *graph.Graph) error {
	return fmt.Errorf("fractal: decomposition requires a uniform-label graph; %s mixes labels (use the plan engine)", g.Name())
}

// decompLabelsMatch reports whether a (uniform-labeled) pattern can match
// in a graph with the given uniform labels: every pattern label is either
// the wildcard or the graph's label.
func decompLabelsMatch(p *Pattern, gvl, gel graph.Label) bool {
	if l := p.VertexLabel(0); p.NumVertices() > 0 && l != NoLabel && l != gvl {
		return false
	}
	n := p.NumVertices()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if p.HasEdge(u, v) {
				l := p.EdgeLabel(u, v)
				return l == NoLabel || l == gel
			}
		}
	}
	return true
}
