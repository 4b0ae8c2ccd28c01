package apps

import (
	"sort"
	"testing"

	"fractal/internal/graph"
	"fractal/internal/workload"
)

// Differential suites for the compiled-plan engines: motif and clique
// counts of the production drivers must be bit-identical to the test-side
// canonical-check oracles (motifsOracle / cliquesOracle, oracle_test.go)
// over randomized ER/BA graphs — single- and multi-label, so both the
// uniform-label fast path and the labeled fallback are exercised — and over
// the end-to-end pin datasets.

func diffGraphs() []*graph.Graph {
	return []*graph.Graph{
		workload.ErdosRenyi("diff-er-sl", 70, 260, 1, 21),
		workload.ErdosRenyi("diff-er-ml", 70, 260, 3, 22),
		workload.BarabasiAlbert("diff-ba-sl", 90, 3, 1, 23),
		workload.BarabasiAlbert("diff-ba-ml", 90, 3, 4, 24),
	}
}

func motifCountsEqual(t *testing.T, name string, k int, plan, canon MotifCounts) {
	t.Helper()
	if len(plan) != len(canon) {
		t.Errorf("%s k=%d: plan has %d motif classes, canon %d", name, k, len(plan), len(canon))
	}
	for code, cpc := range canon {
		ppc, ok := plan[code]
		if !ok {
			t.Errorf("%s k=%d: class %q missing from plan engine (canon count %d)", name, k, code, cpc.Count)
			continue
		}
		if ppc.Count != cpc.Count {
			t.Errorf("%s k=%d class %q: plan=%d canon=%d", name, k, code, ppc.Count, cpc.Count)
		}
	}
	for code := range plan {
		if _, ok := canon[code]; !ok {
			t.Errorf("%s k=%d: plan engine invented class %q", name, k, code)
		}
	}
}

func TestMotifsPlanMatchesCanonical(t *testing.T) {
	ctx := testCtx(t)
	for _, raw := range diffGraphs() {
		g := ctx.FromGraph(raw)
		for k := 1; k <= 4; k++ {
			plan, _, err := Motifs(bg, ctx, g, k, EnginePlan)
			if err != nil {
				t.Fatalf("%s k=%d plan: %v", raw.Name(), k, err)
			}
			canon, _, err := motifsOracle(ctx, g, k)
			if err != nil {
				t.Fatalf("%s k=%d canon: %v", raw.Name(), k, err)
			}
			motifCountsEqual(t, raw.Name(), k, plan, canon)
		}
	}
}

func TestCliquesPlanMatchesCanonical(t *testing.T) {
	ctx := testCtx(t)
	for _, raw := range diffGraphs() {
		g := ctx.FromGraph(raw)
		for k := 2; k <= 5; k++ {
			plan, _, err := Cliques(bg, ctx, g, k)
			if err != nil {
				t.Fatal(err)
			}
			canon, _, err := cliquesOracle(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if plan != canon {
				t.Errorf("%s %d-cliques: plan=%d canon=%d", raw.Name(), k, plan, canon)
			}
		}
	}
}

// TestPlanMatchesCanonicalOnPinDatasets runs both engines end to end on the
// pinned dataset analogs (the seed oracle counts for these live in
// oracle_pin_test.go, which the plan-based Motifs/Cliques already satisfy).
func TestPlanMatchesCanonicalOnPinDatasets(t *testing.T) {
	ctx := testCtx(t)

	g := ctx.FromGraph(pinGraph(t, "mico-sl"))
	plan, _, err := Motifs(bg, ctx, g, 3, EnginePlan)
	if err != nil {
		t.Fatal(err)
	}
	canon, _, err := motifsOracle(ctx, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	motifCountsEqual(t, "mico-sl", 3, plan, canon)

	ork := ctx.FromGraph(pinGraph(t, "orkut"))
	for k := 3; k <= 5; k++ {
		pn, _, err := Cliques(bg, ctx, ork, k)
		if err != nil {
			t.Fatal(err)
		}
		cn, _, err := cliquesOracle(ork, k)
		if err != nil {
			t.Fatal(err)
		}
		if pn != cn {
			t.Errorf("orkut %d-cliques: plan=%d canon=%d", k, pn, cn)
		}
	}
}

// TestMotifsPlanEnumeratesLess is the enumerated-embeddings acceptance
// criterion: on the bench-micro style BA graph at k=4 the plan engine must
// report at most half the canonical path's extension cost (Result TotalEC).
func TestMotifsPlanEnumeratesLess(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(workload.BarabasiAlbert("ec-ba", 200, 4, 1, 25))

	mp, planRes, err := Motifs(bg, ctx, g, 4, EnginePlan)
	if err != nil {
		t.Fatal(err)
	}
	mc, canonRes, err := motifsOracle(ctx, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	motifCountsEqual(t, "ec-ba", 4, mp, mc)

	planEC, canonEC := planRes.TotalEC(), canonRes.TotalEC()
	if planEC == 0 || canonEC == 0 {
		t.Fatalf("degenerate EC: plan=%d canon=%d", planEC, canonEC)
	}
	if canonEC < 2*planEC {
		t.Errorf("plan engine EC=%d, canonical EC=%d: want >= 2x reduction", planEC, canonEC)
	}
	t.Logf("motifs k=4 EC: plan=%d canonical=%d (%.1fx)", planEC, canonEC, float64(canonEC)/float64(planEC))
}

// TestCliquesPlanEnumeratesLess mirrors the EC criterion for cliques.
func TestCliquesPlanEnumeratesLess(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(workload.BarabasiAlbert("ec-ba-c", 200, 5, 1, 26))
	_, planRes, err := Cliques(bg, ctx, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, canonRes, err := cliquesOracle(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	planEC, canonEC := planRes.TotalEC(), canonRes.TotalEC()
	if planEC == 0 || canonEC == 0 {
		t.Fatalf("degenerate EC: plan=%d canon=%d", planEC, canonEC)
	}
	if canonEC <= planEC {
		t.Errorf("plan cliques EC=%d not below canonical EC=%d", planEC, canonEC)
	}
	t.Logf("cliques k=4 EC: plan=%d canonical=%d (%.1fx)", planEC, canonEC, float64(canonEC)/float64(planEC))
}

// TestMotifsPlanMultiLabelClasses checks the labeled fallback splits
// classes exactly like the canonical path on a graph rich in label
// combinations.
func TestMotifsPlanMultiLabelClasses(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(workload.ErdosRenyi("ml-rich", 50, 200, 5, 27))
	plan, _, err := Motifs(bg, ctx, g, 3, EnginePlan)
	if err != nil {
		t.Fatal(err)
	}
	canon, _, err := motifsOracle(ctx, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 3 {
		t.Fatalf("only %d labeled classes; graph not label-rich enough for the test", len(plan))
	}
	motifCountsEqual(t, "ml-rich", 3, plan, canon)

	// Each engine's class representative must canonicalize back to its own
	// key (representatives cross the aggregation wire codec, so pointer
	// identity is not expected — class identity is).
	codes := make([]string, 0, len(plan))
	for code := range plan {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		if got := ctx.PatternCanon(plan[code].Pat).Code; got != code {
			t.Errorf("plan engine: representative of class %q canonicalizes to %q", code, got)
		}
		if got := ctx.PatternCanon(canon[code].Pat).Code; got != code {
			t.Errorf("canonical engine: representative of class %q canonicalizes to %q", code, got)
		}
	}
}
