package fractal

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// The registered apps of this file: one whose builder returns a job that
// cannot run, and one that splits into two steps.
const (
	appInconsistent = "test-inconsistent"
	appTwoStep      = "test-two-step"
)

func init() {
	RegisterApp(appInconsistent, inconsistentApp{})
	RegisterApp(appTwoStep, twoStepApp{})
}

// inconsistentApp builds a counting job that claims to be pattern-induced
// but has no plan: the kind and the plan disagree, and an execution core
// handed it would panic.
type inconsistentApp struct{}

func (inconsistentApp) Build(_ JobSpec, g *RawGraph) (Job, error) {
	job, err := NewBuildGraph(g).VFractoid().Expand(2).Job()
	job.Kind = subgraph.PatternInduced
	job.Workflow = append(job.Workflow, step.CountP())
	return job, err
}

// twoStepApp's step 0 sums the degrees of the vertices per residue class of
// their id ("mod", default 5) and keeps the classes whose sum exceeds "min";
// step 1 keeps the edges whose first vertex lies in a kept class, reading
// what step 0 computed, and counts them per pair of classes.
type twoStepApp struct{}

func (twoStepApp) Build(spec JobSpec, g *RawGraph) (Job, error) {
	mod, _ := strconv.Atoi(spec.Arg("mod"))
	if mod <= 0 {
		mod = 5
	}
	minCount, _ := strconv.ParseInt(spec.Arg("min"), 10, 64)
	class := func(v graph.VertexID) string { return strconv.Itoa(int(v) % mod) }
	f := Aggregate(NewBuildGraph(g).VFractoid().Expand(1), "classes",
		func(e *Subgraph) string { return class(e.Vertices()[0]) },
		func(e *Subgraph) int64 { return int64(g.Degree(e.Vertices()[0])) },
		agg.SumInt64, func(_ string, n int64) bool { return n > minCount })
	f = FilterAgg(f, "classes", func(e *Subgraph, a *agg.Aggregation[string, int64]) bool {
		return a.Contains(class(e.Vertices()[0]))
	})
	return Aggregate(f.Expand(1), "pairs",
		func(e *Subgraph) string { return class(e.Vertices()[0]) + "-" + class(e.Vertices()[1]) },
		func(*Subgraph) int64 { return 1 },
		agg.SumInt64, nil).Job()
}

// specGraphFile writes a deterministic 60-vertex graph whose vertices'
// degrees differ by residue class, and returns its path.
func specGraphFile(t *testing.T) string {
	t.Helper()
	b := graph.NewBuilder("spec")
	for i := 0; i < 60; i++ {
		b.AddVertex(0)
	}
	for u := 0; u < 60; u++ {
		for d := 1; d <= u%4+1; d++ {
			if v := (u*u + 7*d) % 60; v != u {
				b.MustAddEdge(graph.VertexID(u), graph.VertexID(v))
			}
		}
	}
	path := filepath.Join(t.TempDir(), "spec.el")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, b.Build()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// specMaster starts a master with n in-process workers (ServeWorker) and
// waits for them to register.
func specMaster(t *testing.T, n int) *Context {
	t.Helper()
	fc, err := NewContext(WithListenAddr("127.0.0.1:0"), WithCores(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fc.Close)
	for i := 0; i < n; i++ {
		startSpecWorker(t, fc)
	}
	if err := fc.AwaitWorkers(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	return fc
}

// startSpecWorker serves one in-process worker for fc until the test ends.
func startSpecWorker(t *testing.T, fc *Context) {
	t.Helper()
	wctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeWorker(wctx, fc.ListenAddr(), WorkerOptions{})
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// TestInconsistentSpecIsAnError: a registered builder whose job's kind and
// plan disagree gets the same error in process and on a master, where it
// used to reach the workers and panic a core of each; a worker it would
// have crashed still runs the next job.
func TestInconsistentSpecIsAnError(t *testing.T) {
	path := specGraphFile(t)
	for name, fc := range map[string]*Context{"in-process": testContext(t), "master": specMaster(t, 1)} {
		t.Run(name, func(t *testing.T) {
			g, err := fc.LoadGraph(path)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := g.RunSpec(ctx, appInconsistent, nil, nil); err == nil || !strings.Contains(err.Error(), "plan must be set") {
				t.Fatalf("err = %v, want the kind/plan refusal", err)
			}
			if _, err := g.RunSpec(ctx, appTwoStep, nil, nil); err != nil {
				t.Fatalf("the next job: %v", err)
			}
		})
	}
}

// TestTwoStepSpecOnMaster: a job whose second step filters on what its
// first computed gives a master's two workers that aggregation with the
// second step's start, and the result is the in-process one, entry for
// entry.
func TestTwoStepSpecOnMaster(t *testing.T) {
	path := specGraphFile(t)
	args := map[string]string{"mod": "5", "min": "56"}
	run := func(fc *Context) (*Result, map[string]int64, map[string]int64) {
		t.Helper()
		g, err := fc.LoadGraph(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.RunSpec(context.Background(), appTwoStep, args, nil)
		if err != nil {
			t.Fatal(err)
		}
		classes, err := AggregationEntries[string, int64](res.Aggregations, "classes")
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := AggregationEntries[string, int64](res.Aggregations, "pairs")
		if err != nil {
			t.Fatal(err)
		}
		return res, classes, pairs
	}
	res, wantClasses, wantPairs := run(testContext(t))
	if len(res.Steps) != 2 {
		t.Fatalf("%d steps, want 2", len(res.Steps))
	}
	if len(wantClasses) == 0 || len(wantClasses) == 5 || len(wantPairs) == 0 {
		t.Fatalf("degenerate case: %d of 5 classes kept, %d pairs", len(wantClasses), len(wantPairs))
	}
	res, classes, pairs := run(specMaster(t, 2))
	if res.Report.Workers != 2 {
		t.Errorf("report shows %d workers, want 2", res.Report.Workers)
	}
	if !maps.Equal(classes, wantClasses) || !maps.Equal(pairs, wantPairs) {
		t.Errorf("master: classes %v pairs %v\nin process: classes %v pairs %v", classes, pairs, wantClasses, wantPairs)
	}
}
