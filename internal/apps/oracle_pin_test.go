package apps

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"fractal"
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
// the frequent-pattern counts: an independent Visit-based fold into the seed
// oracle's map-of-maps domain representation must produce bit-identical
// code → (support, sorted domains) results to the full pipeline — the
// allocation-free supports, the per-core partial stores, the two-layer
// parallel tree merge, and the binary wire codec included.
func TestPinnedFSMSupportsMatchMapOracle(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(pinGraph(t, "mico-ml"))
	const minSupport = 30

	res, err := FSM(bg, ctx, g, minSupport, FSMOptions{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}

	// The oracle folds every visited embedding into per-position hash sets
	// keyed by canonical code (the seed DomainSupport shape). Visit runs on
	// all cores, so the fold is serialized by a mutex.
	type mapSupport struct {
		domains []map[graph.VertexID]bool
	}
	var mu sync.Mutex
	foldInto := func(m map[string]*mapSupport) func(e *fractal.Subgraph) {
		return func(e *fractal.Subgraph) {
			canon := ctx.PatternOf(e)
			vs := e.Vertices()
			mu.Lock()
			defer mu.Unlock()
			ms := m[canon.Code]
			if ms == nil {
				ms = &mapSupport{domains: make([]map[graph.VertexID]bool, len(vs))}
				for i := range ms.domains {
					ms.domains[i] = map[graph.VertexID]bool{}
				}
				m[canon.Code] = ms
			}
			for i, v := range vs {
				ms.domains[canon.Perm[i]][v] = true
			}
		}
	}
	support := func(ms *mapSupport) int64 {
		min := int64(len(ms.domains[0]))
		for _, d := range ms.domains[1:] {
			if n := int64(len(d)); n < min {
				min = n
			}
		}
		return min
	}

	// Level 1: every single-edge embedding.
	level1 := map[string]*mapSupport{}
	if _, err := g.EFractoid().Expand(1).Visit(foldInto(level1)).RunCtx(bg); err != nil {
		t.Fatal(err)
	}
	frequent1 := map[string]bool{}
	for code, ms := range level1 {
		if support(ms) >= minSupport {
			frequent1[code] = true
		}
	}

	// Level 2: re-enumerate from scratch, keeping only extensions of
	// frequent single edges — the same anti-monotone filter the pipeline's
	// FilterAgg applies against the level-1 aggregation.
	level2 := map[string]*mapSupport{}
	_, err = g.EFractoid().Expand(1).
		Filter(func(e *fractal.Subgraph) bool {
			mu.Lock()
			defer mu.Unlock()
			return frequent1[ctx.PatternOf(e).Code]
		}).
		Expand(1).Visit(foldInto(level2)).RunCtx(bg)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]*mapSupport{}
	for code := range frequent1 {
		want[code] = level1[code]
	}
	for code, ms := range level2 {
		if support(ms) >= minSupport {
			want[code] = ms
		}
	}

	if len(res.Frequent) != len(want) {
		t.Fatalf("pipeline found %d frequent patterns, map oracle %d", len(res.Frequent), len(want))
	}
	for code, ms := range want {
		ds, ok := res.Frequent[code]
		if !ok {
			t.Errorf("pipeline missing frequent pattern %q", code)
			continue
		}
		if ds.Support() != support(ms) {
			t.Errorf("pattern %q support=%d, map oracle %d", code, ds.Support(), support(ms))
		}
		if len(ds.Domains) != len(ms.domains) {
			t.Fatalf("pattern %q arity=%d, map oracle %d", code, len(ds.Domains), len(ms.domains))
		}
		for pos := range ms.domains {
			wantDom := make([]graph.VertexID, 0, len(ms.domains[pos]))
			for v := range ms.domains[pos] {
				wantDom = append(wantDom, v)
			}
			slices.Sort(wantDom)
			if !slices.Equal(ds.Sorted(pos), wantDom) {
				t.Errorf("pattern %q position %d domain differs from map oracle (%d vs %d vertices)",
					code, pos, len(ds.Sorted(pos)), len(wantDom))
			}
		}
	}
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
