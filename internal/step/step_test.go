package step

import (
	"testing"

	"fractal/internal/agg"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"
)

func countSpec(name string) *AggSpec {
	return &AggSpec{
		Name:  name,
		Proto: agg.New[string, int64](agg.SumInt64),
		Emit: func(e *subgraph.Embedding, local agg.Store) {
			local.(*agg.Aggregation[string, int64]).Add("k", 1)
		},
	}
}

func truePred(*subgraph.Embedding) bool { return true }

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{Extend, LocalFilter, AggFilter, Aggregate, Visit, Kind(99)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}

func TestWorkflowString(t *testing.T) {
	w := Workflow{ExtendP(), ExtendP(), ExtendP(), AggregateP(countSpec("motifs"))}
	if w.String() != "EEEA" {
		t.Errorf("String=%q, want EEEA", w.String())
	}
	if w.NumExtensions() != 3 {
		t.Errorf("NumExtensions=%d", w.NumExtensions())
	}
}

func TestSplitSingleStep(t *testing.T) {
	// EEEA- : counting 3-cliques is a single step (Section 3).
	w := Workflow{ExtendP(), ExtendP(), ExtendP(), AggregateP(countSpec("cliques"))}
	steps, err := Split(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Fatalf("got %d steps, want 1", len(steps))
	}
	s := steps[0]
	if s.Depth() != 3 {
		t.Errorf("Depth=%d, want 3", s.Depth())
	}
	if len(s.ExtIdx) != 3 || s.ExtIdx[0] != 0 || s.ExtIdx[2] != 2 {
		t.Errorf("ExtIdx=%v", s.ExtIdx)
	}
	if len(s.AggSpecs()) != 1 {
		t.Errorf("AggSpecs=%d, want 1", len(s.AggSpecs()))
	}
}

func TestSplitAtAggFilter(t *testing.T) {
	// FSM-like: E A | (filter support) E A — two steps, second includes the
	// first's primitives (from-scratch accumulation).
	w := Workflow{
		ExtendP(),
		AggregateP(countSpec("support")),
		AggFilterP("support", func(e *subgraph.Embedding, s agg.Store) bool { return true }),
		ExtendP(),
		AggregateP(countSpec("support2")),
	}
	steps, err := Split(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(steps))
	}
	if len(steps[0].Primitives) != 2 {
		t.Errorf("step0 has %d primitives, want 2", len(steps[0].Primitives))
	}
	if len(steps[1].Primitives) != 5 {
		t.Errorf("step1 has %d primitives, want 5 (ancestors included)", len(steps[1].Primitives))
	}
	// Step 1 must know "support" is already computed: its Aggregate for
	// support is skipped and only support2 is computed.
	if !steps[1].Computed["support"] {
		t.Error("step1 does not mark support as computed")
	}
	specs := steps[1].AggSpecs()
	if len(specs) != 1 || specs[0].Name != "support2" {
		t.Errorf("step1 AggSpecs=%v", specs)
	}
}

func TestSplitPrecomputedAggregationIsNoSyncPoint(t *testing.T) {
	// Reading an aggregation computed by an earlier fractoid execution
	// (FSM loop) does not split the workflow.
	w := Workflow{
		AggFilterP("support", func(e *subgraph.Embedding, s agg.Store) bool { return true }),
		ExtendP(),
	}
	steps, err := Split(w, map[string]bool{"support": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Fatalf("got %d steps, want 1", len(steps))
	}
}

func TestSplitUnknownAggregationFails(t *testing.T) {
	w := Workflow{
		ExtendP(),
		AggFilterP("ghost", func(e *subgraph.Embedding, s agg.Store) bool { return true }),
	}
	if _, err := Split(w, nil); err == nil {
		t.Fatal("reading an unknown aggregation must fail")
	}
}

func TestSplitValidation(t *testing.T) {
	if _, err := Split(Workflow{{Kind: LocalFilter}}, nil); err == nil {
		t.Error("filter without predicate accepted")
	}
	if _, err := Split(Workflow{{Kind: Aggregate}}, nil); err == nil {
		t.Error("aggregate without spec accepted")
	}
	if _, err := Split(Workflow{{Kind: Visit}}, nil); err == nil {
		t.Error("visit without function accepted")
	}
}

// TestSplitNumbersClassFilters: a step's class filters get the verdict bits
// 0, 1, … in workflow order, the same filter the same bit in every step that
// re-runs it, and a workflow with more filters than a memo entry has bits is
// refused, not run with a filter that has none.
func TestSplitNumbersClassFilters(t *testing.T) {
	pass := func(*pattern.Class, agg.Store, *pattern.Labeller) bool { return true }
	w := Workflow{
		ExtendP(), AggregateP(countSpec("a")),
		ClassFilterP("a", pass), ExtendP(), AggregateP(countSpec("b")),
		AggFilterP("a", func(*subgraph.Embedding, agg.Store) bool { return true }),
		ClassFilterP("b", pass), ClassFilterP("a", pass), ExtendP(),
	}
	steps, err := Split(w, nil)
	if err != nil || len(steps) != 3 {
		t.Fatalf("%d steps, %v", len(steps), err)
	}
	for si, s := range steps {
		bit := 0
		for i, p := range s.Primitives {
			if p.ClassPred != nil {
				if p.ClassBit != bit {
					t.Errorf("step %d primitive %d: bit %d, want %d", si, i, p.ClassBit, bit)
				}
				bit++
			} else if p.ClassBit != 0 {
				t.Errorf("step %d primitive %d is no class filter and has bit %d", si, i, p.ClassBit)
			}
		}
	}
	if w[2].ClassBit != 0 || w[6].ClassBit != 0 {
		t.Error("Split numbered the caller's workflow, not its own copies")
	}

	wide := Workflow{ExtendP(), AggregateP(countSpec("a"))}
	for i := 0; i < subgraph.MaxClassFilters; i++ {
		wide = append(wide, ClassFilterP("a", pass))
	}
	if _, err := Split(wide, nil); err != nil {
		t.Errorf("%d class filters: %v", subgraph.MaxClassFilters, err)
	}
	if _, err := Split(append(wide, ClassFilterP("a", pass)), nil); err == nil {
		t.Errorf("%d class filters accepted: the last one has no verdict bit", subgraph.MaxClassFilters+1)
	}
}

func TestSplitEmptyWorkflow(t *testing.T) {
	steps, err := Split(nil, nil)
	if err != nil || len(steps) != 0 {
		t.Errorf("empty workflow: steps=%v err=%v", steps, err)
	}
}

func TestSplitMultipleSyncPoints(t *testing.T) {
	// Three-iteration FSM shape: (E A Fa)^3 — each Fa reads the aggregation
	// of its own iteration, so there are 3 steps.
	mk := func(i int) []Primitive {
		name := string(rune('a' + i))
		return []Primitive{
			ExtendP(),
			AggregateP(countSpec(name)),
			AggFilterP(name, func(e *subgraph.Embedding, s agg.Store) bool { return true }),
		}
	}
	var w Workflow
	for i := 0; i < 3; i++ {
		w = append(w, mk(i)...)
	}
	steps, err := Split(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Three sync points plus the trailing flush: 4 steps of growing size
	// (ancestors accumulate). The final step ends in the last Fa and
	// computes nothing new; the master skips effect-free steps at run time.
	if len(steps) != 4 {
		t.Fatalf("got %d steps, want 4", len(steps))
	}
	wantLens := []int{2, 5, 8, 9}
	for i, s := range steps {
		if len(s.Primitives) != wantLens[i] {
			t.Errorf("step %d has %d primitives, want %d", i, len(s.Primitives), wantLens[i])
		}
	}
	if len(steps[3].AggSpecs()) != 0 {
		t.Error("trailing step should compute no new aggregations")
	}
	last := steps[3].Primitives[len(steps[3].Primitives)-1]
	if last.Kind != AggFilter {
		t.Errorf("last primitive of final step is %v", last.Kind)
	}
}

func TestFilterVisitConstructors(t *testing.T) {
	p := FilterP(truePred)
	if p.Kind != LocalFilter || p.Filter == nil {
		t.Error("FilterP wrong")
	}
	v := VisitP(func(*subgraph.Embedding) {})
	if v.Kind != Visit || v.VisitFn == nil {
		t.Error("VisitP wrong")
	}
	a := AggFilterP("n", func(*subgraph.Embedding, agg.Store) bool { return false })
	if a.Kind != AggFilter || a.AggName != "n" {
		t.Error("AggFilterP wrong")
	}
}
