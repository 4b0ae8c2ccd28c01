package apps

import (
	"sort"
	"testing"

	"fractal/internal/graph"
	"fractal/internal/workload"
)

// End-to-end oracle pins: full application runs over the synthetic dataset
// analogs must reproduce the exact counts measured on the seed (pre-kernel)
// implementation. Together with the differential tests in internal/subgraph
// these pin the extension-kernel rewrite to the seed semantics end to end:
// any enumeration discrepancy — a lost, duplicated, or reordered extension —
// shifts at least one of these totals.

func pinGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPinnedCliqueCounts(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(pinGraph(t, "orkut"))
	want := map[int]int64{3: 19225, 4: 8850, 5: 8808}
	for k := 3; k <= 5; k++ {
		n, _, err := Cliques(bg, ctx, g, k)
		if err != nil {
			t.Fatal(err)
		}
		if n != want[k] {
			t.Errorf("orkut %d-cliques = %d, want %d (seed oracle)", k, n, want[k])
		}
	}
}

func TestPinnedMotifCounts(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(pinGraph(t, "mico-sl"))
	m, _, err := Motifs(bg, ctx, g, 3, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int64
	for _, pc := range m {
		counts = append(counts, pc.Count)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	want := []int64{23892, 241870}
	if len(counts) != len(want) || counts[0] != want[0] || counts[1] != want[1] {
		t.Errorf("mico-sl 3-motif class counts = %v, want %v (seed oracle)", counts, want)
	}
	if got := m.Total(); got != 265762 {
		t.Errorf("mico-sl 3-motif total = %d, want 265762 (seed oracle)", got)
	}
}

// TestPinnedFSMSupportsMatchMapOracle pins the FSM support values, not just
// the frequent-pattern counts: the per-embedding map-of-maps oracle
// (fsmOracle) must produce bit-identical code → (support, sorted domains)
// results to the full pipeline — the class memo, the allocation-free
// supports, the per-core partial stores, the two-layer parallel tree merge,
// and the binary wire codec included.
func TestPinnedFSMSupportsMatchMapOracle(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(pinGraph(t, "mico-ml"))
	const minSupport = 30
	res, err := FSM(bg, ctx, g, minSupport, FSMOptions{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	fsmEqualsOracle(t, "mico-ml", res, fsmOracle(t, g, minSupport, 2))
}

func TestPinnedFSMCounts(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(pinGraph(t, "mico-ml"))
	res, err := FSM(bg, ctx, g, 30, FSMOptions{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Frequent); got != 386 {
		t.Errorf("mico-ml FSM(bg, support=30, maxEdges=2): %d frequent patterns, want 386 (seed oracle)", got)
	}
	wantLevels := []int{83, 303}
	if len(res.PerLevel) != len(wantLevels) ||
		res.PerLevel[0] != wantLevels[0] || res.PerLevel[1] != wantLevels[1] {
		t.Errorf("mico-ml FSM per-level counts = %v, want %v (seed oracle)", res.PerLevel, wantLevels)
	}
}
