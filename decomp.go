package fractal

import (
	"context"
	"fmt"
	"time"

	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/sched"
	"fractal/internal/subgraph"
)

// DecompPlan is a compiled pattern decomposition: a polynomial over local
// counts (degrees, per-edge triangle counts, per-vertex triangle counts)
// whose value is the pattern's non-induced subgraph count, evaluated by one
// shared sweep over the CSR arrays instead of enumeration. Compile one with
// CompileDecomp and run it with Graph.DecompCountCtx; DecompPlan.Explain
// renders it human-readably. See DESIGN.md §14.
type DecompPlan = pattern.DecompPlan

// CompileDecomp searches the decomposition rules for p and compiles the
// matching polynomial. The error reports patterns outside every rule family
// (no valid cut), non-uniform labels, or unusable shapes — callers fall
// back to CompilePlan enumeration (or let ChooseEngine decide).
func CompileDecomp(p *Pattern) (*DecompPlan, error) { return pattern.Decompose(p) }

// EngineChoice pairs the compiled enumeration plan and (when a rule
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

// EvalDecomps evaluates several decomposition plans in ONE shared
// local-count sweep — the fleet form behind the motifs engine, where the
// sweep cost is paid once and every decomposable pattern's polynomial rides
// it. Returns the non-induced count per plan, index-aligned; a nil plan is
// skipped and counts zero, so a fleet passes its patterns' plans with gaps
// where no rule matched. The synthetic Result reports the sweep as one step
// whose EC is the number of adjacency elements visited, so TotalEC remains
// comparable with enumeration runs.
func (fg *Graph) EvalDecomps(ctx context.Context, plans []*DecompPlan) ([]int64, *Result, error) {
	start := time.Now()
	g := fg.g
	gvl, gel, ok := g.UniformLabels()
	if !ok {
		return nil, nil, fmt.Errorf("fractal: decomposition requires a uniform-label graph; %s mixes labels (use the plan engine)", g.Name())
	}

	// A plan whose labels contradict the graph's uniform labels matches
	// nothing; evaluate the rest.
	live := make([]*DecompPlan, 0, len(plans))
	liveIdx := make([]int, 0, len(plans))
	for i, dp := range plans {
		if dp != nil && decompLabelsMatch(dp.P, gvl, gel) {
			live = append(live, dp)
			liveIdx = append(liveIdx, i)
		}
	}

	var terms subgraph.LocalTerms
	type slot struct {
		pair bool
		idx  int
	}
	slots := make([][]slot, len(live))
	for pi, dp := range live {
		if dp.NeedTri {
			terms.NeedTri = true
		}
		slots[pi] = make([]slot, len(dp.Terms))
		for ti, t := range dp.Terms {
			t := t
			if t.Pair() {
				slots[pi][ti] = slot{pair: true, idx: len(terms.Pair)}
				terms.Pair = append(terms.Pair, t.EvalPair)
			} else {
				slots[pi][ti] = slot{pair: false, idx: len(terms.Vertex)}
				terms.Vertex = append(terms.Vertex, t.EvalVertex)
			}
		}
	}

	cores := 1
	if fg.ctx != nil {
		cfg := fg.ctx.Config()
		if n := cfg.Workers * cfg.CoresPerWorker; n > 1 {
			cores = n
		}
	}
	pairSums, vertexSums, ops, err := subgraph.LocalCounts(ctx, g, terms, cores)
	wall := time.Since(start)
	res := &Result{Wall: wall, Steps: []sched.StepReport{{
		Workflow: "D", Attempts: 1, Wall: wall, EC: ops, Utilization: 1,
	}}}
	if err != nil {
		return nil, res, err
	}

	counts := make([]int64, len(plans))
	for pi, dp := range live {
		sums := make([]int64, len(dp.Terms))
		for ti, s := range slots[pi] {
			if s.pair {
				sums[ti] = pairSums[s.idx]
			} else {
				sums[ti] = vertexSums[s.idx]
			}
		}
		n, err := dp.Eval(sums)
		if err != nil {
			return nil, res, fmt.Errorf("fractal: %w", err)
		}
		counts[liveIdx[pi]] = n
	}
	return counts, res, nil
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
