package apps

import (
	"fmt"
	"math"

	"fractal"
	"fractal/internal/pattern"
)

// Decision is the engine choice of one counting run, made once per run by
// DecideMotifs, DecideQuery or DecideCliques: Motifs, Query and Cliques
// execute it, and cmd/fractal -explain prints it, so the two cannot
// disagree — on a choice or on a refusal.
type Decision struct {
	// Patterns are what the run counts: every connected k-vertex class in
	// the pattern.ConnectedPatterns order for motifs, the one pattern of a
	// query or of cliques.
	Patterns []*fractal.Pattern
	// Sweep is index-aligned with Patterns: a non-nil entry is counted by
	// its decomposition over the one shared sweep, a nil entry by
	// enumerating its plan. A nil Sweep enumerates every pattern.
	Sweep []*fractal.DecompPlan
	// Induced marks vertex-induced counting (motifs): enumerated patterns
	// run induced plans, and the sweep's non-induced counts convert through
	// pattern.CombineInduced.
	Induced bool
	// Reason says why, in one line.
	Reason string
}

// Swept reports whether the decision counts Patterns[i] on the sweep.
func (d *Decision) Swept(i int) bool { return d.Sweep != nil && d.Sweep[i] != nil }

// DecideMotifs decides how Motifs counts the k-vertex motifs of g. Under
// EngineAuto the cost model prices the fleet: every decomposable pattern
// moves to one shared sweep when the sweep (the union of the passes its
// plans need, each paid once) costs less than the enumeration it replaces,
// and nothing does otherwise, on a graph that mixes labels (the sweep is
// label-blind), or beyond pattern.MaxDecompVertices (at k=7 the induced
// conversion's spanning-map matrix over 853 classes would cost seconds).
// EnginePlan enumerates everything. A nil g is assumed to carry uniform
// labels: the -explain path loads no graph.
func DecideMotifs(g *fractal.Graph, k int, engine string) (*Decision, error) {
	if err := checkEngine(engine); err != nil {
		return nil, err
	}
	if err := checkSize(`motifs argument "k"`, k); err != nil {
		return nil, err
	}
	pats, err := pattern.ConnectedPatterns(k)
	if err != nil {
		return nil, err
	}
	d := &Decision{Patterns: pats, Induced: true}
	switch {
	case engine == EnginePlan:
		d.Reason = "plan engine: every pattern enumerated"
		return d, nil
	case g != nil && mixesLabels(g):
		d.Reason = "enumeration fleet: graph mixes labels (decomposition sweep is label-blind)"
		return d, nil
	case k > pattern.MaxDecompVertices:
		d.Reason = fmt.Sprintf("enumeration fleet: k=%d beyond the induced-conversion bound %d (its spanning-map matrix over %d classes would take seconds)",
			k, pattern.MaxDecompVertices, len(pats))
		return d, nil
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
		d.Reason = fmt.Sprintf("enumeration fleet: none of the %d patterns is decomposable", len(pats))
	case enumCost > sweepCost:
		d.Sweep = plans
		d.Reason = fmt.Sprintf("mixed fleet: %d of %d patterns decomposed — shared sweep est %.3g ops replaces %.3g partial embeddings",
			n, len(pats), sweepCost, enumCost)
	default:
		d.Reason = fmt.Sprintf("enumeration fleet: sweep est %.3g ops would not pay for %.3g partial embeddings saved", sweepCost, enumCost)
	}
	return d, nil
}

// DecideQuery decides how Query counts the matches of p in g: under
// EngineAuto the cost model's pick (fractal.ChooseEngine), enumerating
// where g mixes labels; under EnginePlan the plan. A nil g is assumed to
// carry uniform labels. An enumerated pattern must have at most
// pattern.MaxGenVertices vertices, the bound of the query spec.
func DecideQuery(g *fractal.Graph, p *fractal.Pattern, engine string) (*Decision, error) {
	if err := checkEngine(engine); err != nil {
		return nil, err
	}
	d := &Decision{Patterns: []*fractal.Pattern{p}, Reason: "plan engine: enumeration"}
	if engine == EngineAuto {
		ch, err := fractal.ChooseEngine(p)
		if err != nil {
			return nil, err
		}
		d.Reason = ch.Reason
		switch {
		case !ch.UseDecomp:
		case g != nil && mixesLabels(g):
			d.Reason = "enumeration: graph mixes labels (decomposition sweep is label-blind)"
		default:
			d.Sweep = []*fractal.DecompPlan{ch.Decomp}
		}
	}
	if d.Sweep == nil {
		if err := checkSize("query pattern's vertex count", p.NumVertices()); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// DecideCliques decides how Cliques counts the k-cliques: by enumerating
// the Clique(k) plan, whose symmetry-breaking restrictions produce each
// clique once (v0 < v1 < … < vk-1). Compiling it takes k!-fold time (9 ms
// at 8, 1 s at 10), so k stops where the generated pattern sets do.
func DecideCliques(k int) (*Decision, error) {
	if err := checkSize(`cliques argument "k"`, k); err != nil {
		return nil, err
	}
	return &Decision{Patterns: []*fractal.Pattern{pattern.Clique(k)}, Reason: "enumeration: the Clique(k) plan"}, nil
}

func checkEngine(engine string) error {
	if engine != EngineAuto && engine != EnginePlan {
		return fmt.Errorf("apps: unknown engine %q (want auto or plan)", engine)
	}
	return nil
}

// checkSize refuses a pattern size outside [1, pattern.MaxGenVertices]:
// past it no pattern set is generated and no plan compiles in useful time.
func checkSize(what string, n int) error {
	if n < 1 || n > pattern.MaxGenVertices {
		return &ArgError{Arg: what, Got: n, Min: 1, Max: pattern.MaxGenVertices}
	}
	return nil
}

// ArgError reports an application argument outside the range it accepts,
// whether it came from a caller or off the wire in a spec.
type ArgError struct {
	// Arg names the argument, e.g. `cliques argument "k"`.
	Arg      string
	Got      int
	Min, Max int // Max math.MaxInt: no upper bound
}

func (e *ArgError) Error() string {
	if e.Max == math.MaxInt {
		return fmt.Sprintf("apps: %s must be at least %d, got %d", e.Arg, e.Min, e.Got)
	}
	return fmt.Sprintf("apps: %s must be in [%d, %d], got %d", e.Arg, e.Min, e.Max, e.Got)
}

func mixesLabels(g *fractal.Graph) bool {
	_, _, uniform := g.Raw().UniformLabels()
	return !uniform
}
