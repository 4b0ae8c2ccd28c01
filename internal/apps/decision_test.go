package apps

import (
	"strings"
	"testing"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/workload"
)

// sweepsEveryDecomposable asserts that the auto engine's k-vertex motif
// decision on g moves every decomposable pattern to the sweep: the tests
// that exercise the sweep through the auto engine rely on it.
func sweepsEveryDecomposable(t *testing.T, g *fractal.Graph, k int) {
	t.Helper()
	d, err := DecideMotifs(g, k, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range d.Patterns {
		_, err := pattern.Decompose(p)
		if d.Swept(i) != (err == nil) {
			t.Fatalf("k=%d pattern %d (%v): swept %v, decomposable %v (%s)", k, i, p, d.Swept(i), err == nil, d.Reason)
		}
	}
}

// querySwept asserts that the auto engine counts p on g with the sweep.
func querySwept(t *testing.T, g *fractal.Graph, p *fractal.Pattern, name string) {
	t.Helper()
	d, err := DecideQuery(g, p, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Swept(0) {
		t.Fatalf("%s: auto enumerates (%s), want the sweep", name, d.Reason)
	}
}

// cliPatterns are the query patterns cmd/fractal names.
var cliPatterns = map[string]*fractal.Pattern{
	"triangle": pattern.Triangle(), "square": pattern.Cycle(4), "diamond": pattern.ChordalSquare(),
	"clique4": pattern.Clique(4), "clique5": pattern.Clique(5), "path3": pattern.Path(3),
	"path4": pattern.Path(4), "star4": pattern.Star(4), "star5": pattern.Star(5),
	"bowtie": pattern.Bowtie(), "house": pattern.House(), "prism": pattern.SEEDQueries()[6],
	"doublesquare": pattern.DoubleSquare(),
}

// checkExecuted holds a run's Result to the decision it was to execute:
// the sweep is the run's first step (workflow EA, one subgraph per vertex)
// exactly when the decision sweeps something, and every other step is the
// enumeration of one pattern the decision enumerates, in pattern order,
// whose subgraphs are that pattern's matches (want[i]). (At k=1 a pattern's
// enumeration has the sweep's shape too; the step count still tells them
// apart there.)
func checkExecuted(t *testing.T, name string, d *Decision, res *fractal.Result, nv int, want []int64) {
	t.Helper()
	steps := res.Report.Steps
	var enumerated []int
	swept := false
	for i := range d.Patterns {
		if d.Swept(i) {
			swept = true
		} else {
			enumerated = append(enumerated, i)
		}
	}
	if swept {
		if len(steps) == 0 || steps[0].Workflow != "EA" || steps[0].Subgraphs != int64(nv) {
			t.Fatalf("%s: decision sweeps, but the run's steps are %v", name, workflows(steps))
		}
		steps = steps[1:]
	}
	if len(steps) != len(enumerated) {
		t.Fatalf("%s: decision enumerates %d patterns, the run has %d enumeration steps %v", name, len(enumerated), len(steps), workflows(steps))
	}
	for j, i := range enumerated {
		p := d.Patterns[i]
		wf := strings.Repeat("E", p.NumVertices()) + "A"
		if steps[j].Workflow != wf || steps[j].Subgraphs != want[i] {
			t.Errorf("%s: step %d (pattern %d, %v): workflow %s, %d subgraphs, want %s and %d",
				name, j, i, p, steps[j].Workflow, steps[j].Subgraphs, wf, want[i])
		}
	}
}

func workflows(steps []fractal.StepReport) []string {
	var out []string
	for _, s := range steps {
		out = append(out, s.Workflow)
	}
	return out
}

// TestRunsExecuteTheirDecision: Motifs and Query run what DecideMotifs and
// DecideQuery decide, no more and no less — the property -explain relies on
// when it prints the decision instead of the run.
func TestRunsExecuteTheirDecision(t *testing.T) {
	ctx := testCtx(t)
	for _, raw := range []struct {
		g       *graph.Graph
		uniform bool
	}{
		{workload.BarabasiAlbert("decide-sl", 60, 3, 1, 71), true},
		{workload.ErdosRenyi("decide-ml", 50, 140, 3, 72), false},
	} {
		g := ctx.FromGraph(raw.g)
		nv := raw.g.NumVertices()
		for k := 1; k <= 5; k++ {
			pats, err := pattern.ConnectedPatterns(k)
			if err != nil {
				t.Fatal(err)
			}
			// The induced matches of each structure, from Listing 1: on a
			// mixed-label graph one structure spans several classes.
			oracle, _, err := motifsOracle(ctx, g, k)
			if err != nil {
				t.Fatal(err)
			}
			index := map[string]int{}
			for i, p := range pats {
				index[pattern.WithUniformLabels(p, 0, 0).Canonical().Code] = i
			}
			want := make([]int64, len(pats))
			for _, pc := range oracle {
				want[index[pattern.WithUniformLabels(pc.Pat, 0, 0).Canonical().Code]] += pc.Count
			}
			for _, engine := range []string{EngineAuto, EnginePlan} {
				d, err := DecideMotifs(g, k, engine)
				if err != nil {
					t.Fatal(err)
				}
				if raw.uniform && engine == EngineAuto && k >= 2 {
					sweepsEveryDecomposable(t, g, k)
				} else if (engine == EnginePlan || !raw.uniform) && d.Sweep != nil {
					t.Errorf("%s k=%d %s: decision sweeps (%s)", raw.g.Name(), k, engine, d.Reason)
				}
				_, res, err := Motifs(bg, ctx, g, k, engine)
				if err != nil {
					t.Fatal(err)
				}
				checkExecuted(t, raw.g.Name()+" motifs "+engine, d, res, nv, want)
			}
		}
	}
	g := ctx.FromGraph(workload.BarabasiAlbert("decide-q", 60, 3, 1, 73))
	for name, p := range cliPatterns {
		for _, engine := range []string{EngineAuto, EnginePlan} {
			d, err := DecideQuery(g, p, engine)
			if err != nil {
				t.Fatal(err)
			}
			n, res, err := Query(bg, ctx, g, p, engine)
			if err != nil {
				t.Fatal(err)
			}
			checkExecuted(t, name+" "+engine, d, res, g.Raw().NumVertices(), []int64{n})
		}
	}
}
