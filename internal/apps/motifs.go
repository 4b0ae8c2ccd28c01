// Package apps implements the GPM applications evaluated in the paper
// (Section 2.2, Appendix A) on top of the public Fractal API: motifs,
// cliques (plain and KClist-optimized), triangles, frequent subgraph
// mining, subgraph querying, and keyword search. Each function mirrors the
// corresponding listing of the paper.
package apps

import (
	"context"
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

func (motifsBuilder) Build(spec fractal.JobSpec, g *graph.Graph) (sched.Job, error) {
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
// It executes DecideMotifs' decision: every connected k-vertex pattern is
// counted either by its motifsBuilder job (enumeration) or by its
// decomposition's terms over one shared decomposition sweep
// (Graph.EvalDecomps, itself a registered spec), whose non-induced counts
// convert to induced class counts by back-substitution through the
// spanning-subgraph matrix (pattern.CombineInduced; DESIGN.md §14). The
// engines differ only in how much they enumerate; counts are
// bit-identical. The returned Result combines all jobs (CombineResults),
// so TotalEC spans the whole fleet.
func Motifs(ctx context.Context, fc *fractal.Context, g *fractal.Graph, k int, engine string) (MotifCounts, *fractal.Result, error) {
	d, err := DecideMotifs(g, k, engine)
	if err != nil {
		return nil, nil, err
	}
	pats := d.Patterns
	var results []*fractal.Result
	fail := func(err error) (MotifCounts, *fractal.Result, error) {
		return nil, fractal.CombineResults(results...), err
	}

	// Decomposed part: one shared sweep evaluating every decomposition.
	decomposed := make([]bool, len(pats))
	nonInduced := make([]int64, len(pats))
	if d.Sweep != nil {
		for i := range pats {
			decomposed[i] = d.Swept(i)
		}
		var res *fractal.Result
		nonInduced, res, err = g.EvalDecomps(ctx, d.Sweep)
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

	if d.Sweep != nil {
		if err := pattern.CombineInduced(pats, induced, nonInduced, decomposed); err != nil {
			return fail(err)
		}
	}
	if uniform {
		// The label specialization makes the keys (canonical codes)
		// identical to Listing 1's, which canonicalizes each embedding's
		// induced pattern carrying the graph's labels.
		for i, p := range pats {
			if induced[i] > 0 {
				lp := pattern.WithUniformLabels(p, vl, el)
				counts[fc.PatternCanon(lp).Code] = agg.PatternCount{Pat: fc.PatternRepOf(lp), Count: induced[i]}
			}
		}
	}
	return counts, fractal.CombineResults(results...), nil
}
