package apps

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/workload"
)

// closureGraph is the i-th graph of the closure suite: small ER, BA and
// community graphs over 1, 2, 3, 5 or 8 vertex labels; every fourth one is a
// multigraph — a tenth of its edges doubled, edge labels drawn from three.
func closureGraph(i int) *graph.Graph {
	labels := []int{1, 2, 3, 5, 8}[i%5]
	seed := int64(7000 + i)
	name := fmt.Sprintf("closure-%d", i)
	// More labels, more vertices: every support must leave something frequent.
	n := 30 + i%9 + 10*labels
	var g *graph.Graph
	switch i % 3 {
	case 0:
		g = workload.ErdosRenyi(name, n, 2*n, labels, seed)
	case 1:
		g = workload.BarabasiAlbert(name, n, 2, labels, seed)
	default:
		g = workload.Community(name, 4, n/4, 2.6, 0.5, labels, seed)
	}
	if i%4 != 3 {
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name + "-multi")
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.VertexLabels(graph.VertexID(v))...)
	}
	for id := 0; id < g.NumEdges(); id++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(id))
		b.MustAddEdge(u, v, graph.Label(rng.Intn(3)))
		if rng.Intn(10) == 0 {
			b.MustAddEdge(u, v, graph.Label(rng.Intn(3)))
		}
	}
	return b.Build()
}

// TestFSMEqualsLevelwiseClosure holds FSM to what it computes by
// construction: the level-wise closure of Listing 3 — fsmOracle with each
// level closed before the next reads it. Keys, supports and every domain
// must agree on seeded random graphs (one label to eight, simple and
// multigraph), three supports each, three or four edge levels, on one core,
// on two, and on two one-core workers over TCP. Where the closure drops
// nothing the oracle is Listing 3 itself; the suite says how often that is.
func TestFSMEqualsLevelwiseClosure(t *testing.T) {
	graphs := 42
	if testing.Short() || raceEnabled { // `make check-race` runs the short form
		graphs = 8
	}
	deployments := []struct {
		name string
		fc   *fractal.Context
	}{
		{"1x1", inProcess(fractal.WithCores(1))(t)},
		{"1x2", inProcess(fractal.WithCores(2))(t)},
		{"tcp 2x1", inProcess(fractal.WithWorkers(2), fractal.WithCores(1), fractal.WithTCP())(t)},
	}
	oracleCtx := deployments[1].fc
	runs, identity, multi := 0, 0, 0
	for i := 0; i < graphs; i++ {
		raw := closureGraph(i)
		for j, support := range []int64{2, 3, 5} {
			maxEdges := 3 + (i+j)%2
			og := oracleCtx.FromGraph(raw)
			want := fsmOracleLevels(t, og, support, maxEdges, true)
			if len(want[0]) == 0 {
				t.Fatalf("%s support %d: nothing frequent at level 1, a degenerate fixture", raw.Name(), support)
			}
			runs++
			// A closed level is a subset of the open one: equal sizes, equal sets.
			if slices.EqualFunc(want, fsmOracle(t, og, support, maxEdges), func(a, b fsmOracleLevel) bool {
				return len(a) == len(b)
			}) {
				identity++
			}
			for _, d := range deployments {
				label := fmt.Sprintf("%s support %d maxedges %d on %s", raw.Name(), support, maxEdges, d.name)
				got, err := FSM(bg, d.fc, d.fc.FromGraph(raw), support, FSMOptions{MaxEdges: maxEdges})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fsmEqualsOracle(t, label, got, want)
			}
		}
		if raw.NumEdges() > 0 && i%4 == 3 {
			multi++
		}
	}
	t.Logf("%d graphs (%d multigraphs), %d oracle runs: the closure is Listing 3's own result on %d", graphs, multi, runs, identity)
}

// TestFSMReductionKeepsFrequentSet: graph reduction (-reduce) rests on the
// same anti-monotonicity as the level-wise pruning — no infrequent edge is
// in a frequent subgraph — so mining the reduced graph finds the same
// patterns with the same supports.
func TestFSMReductionKeepsFrequentSet(t *testing.T) {
	ctx := testCtx(t)
	for _, i := range []int{1, 2, 6, 7} { // BA, community, ER, multigraph BA
		raw := closureGraph(i)
		for _, support := range []int64{2, 4} {
			plain, err := FSM(bg, ctx, ctx.FromGraph(raw), support, FSMOptions{MaxEdges: 3})
			if err != nil {
				t.Fatal(err)
			}
			reduced, err := FSM(bg, ctx, ctx.FromGraph(raw), support, FSMOptions{MaxEdges: 3, GraphReduction: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Frequent) == 0 || !slices.Equal(plain.PerLevel, reduced.PerLevel) {
				t.Fatalf("%s support %d: per level %v, reduced %v", raw.Name(), support, plain.PerLevel, reduced.PerLevel)
			}
			for code, ds := range plain.Frequent {
				if rds, ok := reduced.Frequent[code]; !ok || rds.Support() != ds.Support() {
					t.Errorf("%s support %d: pattern %q has support %d, on the reduced graph %v", raw.Name(), support, code, ds.Support(), rds)
				}
			}
		}
	}
}

// TestFSMRefusesMaxEdgesOutOfRange: 0 means the default; a negative bound or
// one past what a pattern can hold is a typed error, not three levels or a
// panic in the pattern builder.
func TestFSMRefusesMaxEdgesOutOfRange(t *testing.T) {
	ctx := testCtx(t)
	g := ctx.FromGraph(k4Pendant())
	for _, bad := range []int{-4, MaxFSMEdges + 1} {
		var me *MaxEdgesError
		if _, err := FSM(bg, ctx, g, 1, FSMOptions{MaxEdges: bad}); !errors.As(err, &me) || me.Got != bad {
			t.Errorf("MaxEdges %d: %v, want a *MaxEdgesError", bad, err)
		}
	}
	if res, err := FSM(bg, ctx, g, 1, FSMOptions{}); err != nil || len(res.PerLevel) != 3 {
		t.Errorf("MaxEdges 0: %v, want the default three levels", err)
	}
}
