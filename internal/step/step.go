// Package step implements the workflow layer of the Fractal computation
// model (Section 3): the extension (E), aggregation (A), and filtering (F)
// primitives, and the splitting of a workflow into fractal steps around
// synchronization points (Algorithm 2). A fractal step is the scheduling
// unit executed from scratch by every core with the DFS procedure of
// Algorithm 1 (implemented in internal/sched).
package step

import (
	"fmt"

	"fractal/internal/agg"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"
)

// Kind identifies a primitive.
type Kind uint8

const (
	// Extend is the extension primitive (E): it grows embeddings by one
	// word according to the fractoid's extension strategy.
	Extend Kind = iota
	// LocalFilter is the filtering primitive (F) using only local
	// information about the embedding (operator W3).
	LocalFilter
	// AggFilter is the filtering primitive (F) reading a previously
	// computed aggregation (operator W4); it is the synchronization point
	// of Algorithm 2.
	AggFilter
	// Aggregate is the aggregation primitive (A) (operator W2).
	Aggregate
	// Visit streams completed embeddings to user code (output operator O1).
	Visit
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Extend:
		return "E"
	case LocalFilter:
		return "F"
	case AggFilter:
		return "Fa"
	case Aggregate:
		return "A"
	case Visit:
		return "V"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// AggSpec describes one named aggregation: a prototype store cloned per
// core and an emit function folding an embedding into a local store.
type AggSpec struct {
	Name string
	// Proto is an empty store embedding the reduction (and optional
	// aggFilter); per-core stores are Proto.NewEmpty().
	Proto agg.Store
	// Emit folds the current embedding into local, which has the dynamic
	// type of Proto.
	Emit func(e *subgraph.Embedding, local agg.Store)
}

// Primitive is one element of a workflow.
type Primitive struct {
	Kind Kind

	// Filter is the predicate of LocalFilter primitives.
	Filter func(e *subgraph.Embedding) bool

	// AggName names the aggregation read by AggFilter primitives.
	AggName string
	// AggPred is the predicate of AggFilter primitives; store is the
	// computed aggregation named AggName.
	AggPred func(e *subgraph.Embedding, store agg.Store) bool
	// ClassPred, set in place of AggPred, makes the AggFilter a class
	// filter: its verdict depends on the embedding's class and the store
	// alone, so the runtime asks it once per class per core and keeps the
	// answer in the embedding's class memo (subgraph.Embedding.ClassPasses)
	// under bit ClassBit, the filter's rank among its step's class filters
	// (assigned by Split). lab is the memo's labeller, for predicates that
	// label patterns derived from the class.
	ClassPred func(cl *pattern.Class, store agg.Store, lab *pattern.Labeller) bool
	ClassBit  int

	// Agg is the specification of Aggregate primitives.
	Agg *AggSpec

	// VisitFn receives completed embeddings of Visit primitives. It may be
	// called concurrently from all cores and must be safe for that.
	VisitFn func(e *subgraph.Embedding)
}

// Workflow is a sequence of primitives, built by a Fractoid.
type Workflow []Primitive

// String renders the workflow in the paper's compact notation, e.g. "EEEA".
func (w Workflow) String() string {
	out := make([]byte, 0, len(w))
	for _, p := range w {
		out = append(out, p.Kind.String()[0])
	}
	return string(out)
}

// NumExtensions returns the number of Extend primitives.
func (w Workflow) NumExtensions() int {
	n := 0
	for _, p := range w {
		if p.Kind == Extend {
			n++
		}
	}
	return n
}

// CheckClassFilters returns an error when the workflow holds more class
// filters than a class-memo entry has verdict bits: a filter without a bit
// could only pass everything or run per embedding, so it is refused when the
// workflow is composed.
func (w Workflow) CheckClassFilters() error {
	n := 0
	for _, p := range w {
		if p.ClassPred != nil {
			n++
		}
	}
	if n > subgraph.MaxClassFilters {
		return fmt.Errorf("step: %d class filters in one workflow, at most %d", n, subgraph.MaxClassFilters)
	}
	return nil
}

// ExtendP returns an extension primitive.
func ExtendP() Primitive { return Primitive{Kind: Extend} }

// FilterP returns a local-filter primitive.
func FilterP(f func(*subgraph.Embedding) bool) Primitive {
	return Primitive{Kind: LocalFilter, Filter: f}
}

// AggFilterP returns an aggregation-filter primitive reading aggName.
func AggFilterP(aggName string, pred func(*subgraph.Embedding, agg.Store) bool) Primitive {
	return Primitive{Kind: AggFilter, AggName: aggName, AggPred: pred}
}

// ClassFilterP returns an aggregation-filter primitive reading aggName whose
// verdict is per class.
func ClassFilterP(aggName string, pred func(*pattern.Class, agg.Store, *pattern.Labeller) bool) Primitive {
	return Primitive{Kind: AggFilter, AggName: aggName, ClassPred: pred}
}

// AggregateP returns an aggregation primitive.
func AggregateP(spec *AggSpec) Primitive { return Primitive{Kind: Aggregate, Agg: spec} }

// VisitP returns a visit primitive.
func VisitP(f func(*subgraph.Embedding)) Primitive { return Primitive{Kind: Visit, VisitFn: f} }

// CountAgg is the reserved aggregation name of CountP; the NUL prefix keeps
// it out of any user namespace.
const CountAgg = "\x00fractal.count"

// countAgg is shared by every counting workflow: it holds no per-job state.
var countAgg = &AggSpec{
	Name:  CountAgg,
	Proto: agg.NewInt64Sums(1),
	Emit:  func(_ *subgraph.Embedding, local agg.Store) { local.(*agg.Int64Sums).Sums[0]++ },
}

// CountP returns the counting primitive: a one-slot agg.Int64Sums
// aggregation named CountAgg that every embedding reaching it increments.
// This is the only way the system counts: the per-core partials merge and
// ship like any aggregation, so a count is attempt-tagged and exact under
// step retries, and a cancelled step's partial count is discarded.
func CountP() Primitive { return AggregateP(countAgg) }

// CountOf reads the count a CountP workflow left in env; 0 when the
// workflow did not run to completion.
func CountOf(env *agg.Registry) int64 {
	if env != nil {
		if s, ok := env.Get(CountAgg); ok {
			return s.(*agg.Int64Sums).Sums[0]
		}
	}
	return 0
}

// Step is one fractal step: the primitives to execute (including all
// ancestor primitives, per the from-scratch paradigm) plus static metadata
// the DFS engine uses.
type Step struct {
	Primitives []Primitive
	// ExtIdx[d] is the index in Primitives of the d-th Extend primitive;
	// an enumeration prefix of length d+1 resumes after ExtIdx[d].
	ExtIdx []int
	// Computed names the aggregations whose results exist before this step
	// runs (from earlier steps or earlier fractoid executions); their
	// Aggregate primitives are skipped during re-computation and their
	// AggFilter primitives read from the environment.
	Computed map[string]bool
}

// build derives the static metadata of a step.
func build(prims []Primitive, computed map[string]bool) *Step {
	s := &Step{Primitives: prims, Computed: map[string]bool{}}
	for n := range computed {
		s.Computed[n] = true
	}
	classFilters := 0
	for i := range prims {
		switch p := &prims[i]; {
		case p.Kind == Extend:
			s.ExtIdx = append(s.ExtIdx, i)
		case p.ClassPred != nil:
			p.ClassBit = classFilters
			classFilters++
		}
	}
	return s
}

// Depth returns the number of extension levels of the step.
func (s *Step) Depth() int { return len(s.ExtIdx) }

// AggSpecs returns the aggregation specifications that this step must
// compute (not already available in the environment).
func (s *Step) AggSpecs() []*AggSpec {
	var out []*AggSpec
	for _, p := range s.Primitives {
		if p.Kind == Aggregate && !s.Computed[p.Agg.Name] {
			out = append(out, p.Agg)
		}
	}
	return out
}

// Split partitions a workflow into fractal steps (Algorithm 2). A
// primitive is a synchronization point when it is an AggFilter whose
// aggregation is not yet computed: the accumulated prefix is flushed as a
// step (computing that aggregation), and accumulation continues so that
// each step re-runs its ancestors from scratch. precomputed names
// aggregations already available in the environment (e.g. from a previous
// fractoid execution, as in the FSM loop of Listing 3).
//
// Split returns an error when an AggFilter reads a name that no preceding
// Aggregate primitive nor the environment provides, or when the workflow
// holds more class filters than a memo entry has verdict bits.
func Split(w Workflow, precomputed map[string]bool) ([]*Step, error) {
	if err := w.CheckClassFilters(); err != nil {
		return nil, err
	}
	computed := map[string]bool{}
	for n := range precomputed {
		// A count is an output, never an input: a previous job's count left
		// in the environment must not make this job's counting step
		// effect-free.
		if n != CountAgg {
			computed[n] = true
		}
	}
	var (
		steps   []*Step
		cur     []Primitive
		pending = map[string]bool{} // aggregations defined by cur, not yet flushed
	)
	flush := func() {
		if len(cur) == 0 {
			return
		}
		steps = append(steps, build(append([]Primitive(nil), cur...), computed))
		for n := range pending {
			computed[n] = true
		}
		pending = map[string]bool{}
	}
	for i, p := range w {
		switch p.Kind {
		case AggFilter:
			if !computed[p.AggName] {
				if !pending[p.AggName] {
					return nil, fmt.Errorf("step: filter at %d reads aggregation %q that is never computed before it", i, p.AggName)
				}
				flush() // synchronization point
			}
		case Aggregate:
			if p.Agg == nil || p.Agg.Name == "" {
				return nil, fmt.Errorf("step: aggregate primitive at %d has no specification", i)
			}
			if !computed[p.Agg.Name] {
				pending[p.Agg.Name] = true
			}
		case LocalFilter:
			if p.Filter == nil {
				return nil, fmt.Errorf("step: filter primitive at %d has no predicate", i)
			}
		case Visit:
			if p.VisitFn == nil {
				return nil, fmt.Errorf("step: visit primitive at %d has no function", i)
			}
		}
		cur = append(cur, p)
	}
	flush()
	return steps, nil
}
