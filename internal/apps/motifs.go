// Package apps implements the GPM applications evaluated in the paper
// (Section 2.2, Appendix A) on top of the public Fractal API: motifs,
// cliques (plain and KClist-optimized), triangles, frequent subgraph
// mining, subgraph querying, and keyword search. Each function mirrors the
// corresponding listing of the paper.
package apps

import (
	"context"
	"fmt"
	"strconv"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/sched"
	"fractal/internal/step"
)

// MotifCounts is the result of the motifs kernel: counts per pattern with a
// representative pattern for reporting.
type MotifCounts map[string]agg.PatternCount

// Total sums the counts.
func (m MotifCounts) Total() int64 {
	var t int64
	for _, pc := range m {
		t += pc.Count
	}
	return t
}

// motifsBuilder is the per-pattern kernel of the motifs fleet: one job per
// non-isomorphic connected k-vertex pattern, each running a symmetry-broken
// induced plan, so every automorphism class of embeddings is enumerated
// exactly once. Args: "k" and "pattern", an index into the deterministic
// pattern.ConnectedPatterns(k) sequence.
type motifsBuilder struct{}

func (motifsBuilder) EnvProtos(fractal.JobSpec) (map[string]agg.Store, error) {
	return nil, nil
}

func (motifsBuilder) Build(spec fractal.JobSpec, g *graph.Graph, _ *agg.Registry) (sched.Job, error) {
	k, err := specInt(spec, "k", 1, pattern.MaxGenVertices)
	if err != nil {
		return sched.Job{}, err
	}
	pats, err := pattern.ConnectedPatterns(k)
	if err != nil {
		return sched.Job{}, err
	}
	idx, err := specInt(spec, "pattern", 0, len(pats)-1)
	if err != nil {
		return sched.Job{}, err
	}
	p := pats[idx]
	vl, el, uniform := g.UniformLabels()
	if uniform {
		// Uniform labels (every vertex the same single label, every edge the
		// same label; unlabeled graphs included): the pattern is
		// label-specialized and its motif class is known a priori, so the job
		// just counts — zero per-embedding work beyond enumeration.
		p = pattern.WithUniformLabels(p, vl, el)
	}
	plan, err := fractal.CompileInducedPlan(p)
	if err != nil {
		return sched.Job{}, err
	}
	f := fractal.NewBuildGraph(g).PFractoidPlan(plan).Expand(k)
	if uniform {
		return countJob(f)
	}
	// Mixed labels: the structure plan is label-blind (every label
	// wildcarded), so it still enumerates each automorphism class of each
	// k-vertex set exactly once; the embeddings of one structure class are
	// then split into labeled motif classes by the class of the match with
	// the graph's labels filled in (for an induced plan, the induced labeled
	// pattern) — one canonicalization per distinct labeling, not per
	// embedding.
	return fractal.Aggregate(f, "motifs",
		func(e *fractal.Subgraph) string { return e.Class().Code },
		func(e *fractal.Subgraph) agg.PatternCount {
			return agg.PatternCount{Pat: e.Class().Rep, Count: 1}
		},
		agg.ReducePatternCount, nil).Job()
}

// Motifs counts the frequencies of all k-vertex induced subgraph patterns.
// Every connected k-vertex pattern is counted either by its motifsBuilder
// job (enumeration) or by its decomposition's terms over one shared
// decomposition sweep (Graph.EvalDecomps, itself a registered spec), whose
// non-induced counts convert to induced class counts by back-substitution
// through the spanning-subgraph matrix (pattern.CombineInduced; DESIGN.md
// §14). The engines differ only in how
// much they enumerate; counts are bit-identical. The returned Result
// combines all jobs (CombineResults), so TotalEC spans the whole fleet.
//
// engine picks who decides: EngineAuto asks the cost model (motifFleet),
// EnginePlan enumerates everything, EngineDecomp sweeps every decomposable
// pattern and errors where the sweep cannot run at all, and EngineCanon is
// the canonical-check path of Listing 1 — also what auto and plan fall back
// to beyond pattern.MaxGenVertices, where no pattern set is generated.
func Motifs(ctx context.Context, fc *fractal.Context, g *fractal.Graph, k int, engine string) (MotifCounts, *fractal.Result, error) {
	switch engine {
	case EngineAuto, EnginePlan, EngineDecomp:
	case EngineCanon:
		if fc.ListenAddr() != "" {
			return nil, nil, sched.NotShippable("the motifs canon engine, which exists only as in-process closures")
		}
	default:
		return nil, nil, fmt.Errorf("apps: unknown motifs engine %q (want auto, plan, decomp or canon)", engine)
	}
	var sweep []*pattern.DecompPlan
	if engine == EngineAuto || engine == EngineDecomp {
		dplans, pays, reason := motifFleet(g, k)
		if engine == EngineDecomp && dplans == nil {
			return nil, nil, fmt.Errorf("apps: the decomp engine cannot run: %s", reason)
		}
		if engine == EngineDecomp || pays {
			sweep = dplans
		}
	}
	if engine == EngineCanon || k > pattern.MaxGenVertices {
		return motifsCanon(ctx, fc, g, k)
	}
	pats, err := pattern.ConnectedPatterns(k)
	if err != nil {
		return nil, nil, err
	}
	var results []*fractal.Result
	fail := func(err error) (MotifCounts, *fractal.Result, error) {
		return nil, fractal.CombineResults(results...), err
	}

	// Decomposed part: one shared sweep evaluating every decomposition.
	decomposed := make([]bool, len(pats))
	nonInduced := make([]int64, len(pats))
	if sweep != nil {
		for i, dp := range sweep {
			decomposed[i] = dp != nil
		}
		var res *fractal.Result
		nonInduced, res, err = g.EvalDecomps(ctx, sweep)
		results = append(results, res)
		if err != nil {
			return fail(err)
		}
	}

	// Enumerated part: one job per pattern no sweep covers.
	counts := MotifCounts{}
	vl, el, uniform := g.Raw().UniformLabels()
	induced := make([]int64, len(pats))
	for i := range pats {
		if decomposed[i] {
			continue
		}
		res, err := g.RunSpec(ctx, AppMotifs,
			map[string]string{"k": strconv.Itoa(k), "pattern": strconv.Itoa(i)}, nil)
		results = append(results, res)
		if err != nil {
			return fail(err)
		}
		if uniform {
			induced[i] = step.CountOf(res.Aggregations)
			continue
		}
		m, err := agg.Typed[string, agg.PatternCount](res.Aggregations, "motifs")
		if err != nil {
			return fail(err)
		}
		// Distinct structures canonicalize to distinct codes, so no merge
		// collisions happen across jobs; within a job the aggregation has
		// already reduced.
		m.Range(func(code string, pc agg.PatternCount) bool {
			counts[code] = pc
			return true
		})
	}

	if sweep != nil {
		if err := pattern.CombineInduced(pats, induced, nonInduced, decomposed); err != nil {
			return fail(err)
		}
	}
	if uniform {
		// The label specialization makes the keys (canonical codes)
		// identical to the canonical-check path's, which canonicalizes
		// induced patterns carrying the graph's labels.
		for i, p := range pats {
			if induced[i] > 0 {
				lp := pattern.WithUniformLabels(p, vl, el)
				counts[fc.PatternCanon(lp).Code] = agg.PatternCount{Pat: fc.PatternRepOf(lp), Count: induced[i]}
			}
		}
	}
	return counts, fractal.CombineResults(results...), nil
}

// motifsCanon counts motifs with the canonical-check path (Listing 1 of the
// paper): expand vertex-induced subgraphs and aggregate on the canonical
// pattern of each embedding —
//
//	graph.vfractoid.expand(k).
//	  aggregate[Pattern,Long]("motifs", pattern, 1, sum).
//	  aggregation("motifs")
//
// Every automorphic duplicate is enumerated and folded by canonicalization,
// so it needs no generated pattern set and supports any k.
func motifsCanon(ctx context.Context, fc *fractal.Context, g *fractal.Graph, k int) (MotifCounts, *fractal.Result, error) {
	frac := fractal.Aggregate(g.VFractoid().Expand(k), "motifs",
		func(e *fractal.Subgraph) string { return fc.PatternOf(e).Code },
		func(e *fractal.Subgraph) agg.PatternCount {
			// The shared class representative makes the "first pattern wins"
			// reduction independent of embedding arrival and merge order.
			return agg.PatternCount{Pat: fc.PatternRep(e), Count: 1}
		},
		agg.ReducePatternCount, nil)
	m, res, err := fractal.AggregationMapCtx[string, agg.PatternCount](ctx, frac, "motifs")
	if err != nil {
		return nil, res, err
	}
	return MotifCounts(m), res, nil
}

// MotifsFleetReason reports, without running anything, which engine
// Motifs' EngineAuto would use for k on g and why — the -explain surface of
// the motifs kernel. A nil graph skips the label check (the -explain path,
// which loads no graph, assumes uniform labels).
func MotifsFleetReason(g *fractal.Graph, k int) string {
	_, _, reason := motifFleet(g, k)
	return reason
}

// motifFleet is the cost model's view of the k-vertex motif fleet. dplans
// is index-aligned with pattern.ConnectedPatterns(k): a non-nil entry is a
// pattern the shared sweep can count, and dplans itself is nil where the
// sweep cannot run at all. pays reports whether the sweep (priced as the
// union of the passes its plans need, each paid once) is cheaper than the
// enumeration it replaces. g may be nil: the label check is skipped.
func motifFleet(g *fractal.Graph, k int) (dplans []*pattern.DecompPlan, pays bool, reason string) {
	if k > pattern.MaxGenVertices {
		return nil, false, fmt.Sprintf("canon: k=%d beyond the pattern generator bound %d", k, pattern.MaxGenVertices)
	}
	if g != nil {
		if _, _, ok := g.Raw().UniformLabels(); !ok {
			return nil, false, "enumeration fleet: graph mixes labels (decomposition sweep is label-blind)"
		}
	}
	if k > pattern.MaxDecompVertices {
		return nil, false, fmt.Sprintf("enumeration fleet: k=%d beyond the induced-conversion bound %d", k, pattern.MaxDecompVertices)
	}
	pats, err := pattern.ConnectedPatterns(k)
	if err != nil {
		return nil, false, err.Error()
	}
	plans := make([]*pattern.DecompPlan, len(pats))
	var n int
	var enumCost float64
	for i, p := range pats {
		dp, err := pattern.Decompose(p)
		if err != nil {
			continue
		}
		plans[i] = dp
		n++
		if pl, err := pattern.NewInducedPlan(p); err == nil {
			enumCost += pl.EstCost
		}
	}
	sweepCost := pattern.SweepCost(plans)
	switch {
	case n == 0:
		return nil, false, fmt.Sprintf("enumeration fleet: none of the %d patterns is decomposable", len(pats))
	case enumCost > sweepCost:
		return plans, true, fmt.Sprintf("mixed fleet: %d of %d patterns decomposed — shared sweep est %.3g ops replaces %.3g partial embeddings",
			n, len(pats), sweepCost, enumCost)
	}
	return plans, false, fmt.Sprintf("enumeration fleet: sweep est %.3g ops would not pay for %.3g partial embeddings saved", sweepCost, enumCost)
}
