package sched

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// randomGraph builds a random simple labeled graph.
func randomGraph(n int, p float64, labels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder("rand")
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
			}
		}
	}
	return b.Build()
}

// starGraph builds a hub-and-spokes graph plus a chain, a deliberately
// skewed workload.
func starGraph(spokes int) *graph.Graph {
	b := graph.NewBuilder("star")
	hub := b.AddVertex()
	for i := 0; i < spokes; i++ {
		v := b.AddVertex()
		b.MustAddEdge(hub, v)
	}
	return b.Build()
}

// refCount runs the single-threaded reference enumeration.
func refCount(g *graph.Graph, kind subgraph.Kind, plan *pattern.Plan, depth int) int64 {
	e := subgraph.New(g, kind, plan)
	var count int64
	var rec func(d int)
	rec = func(d int) {
		if d == depth {
			count++
			return
		}
		if d == 0 {
			for w := subgraph.Word(0); int(w) < e.InitialDomain(); w++ {
				if !e.ValidInitial(w) {
					continue
				}
				e.Push(w)
				rec(d + 1)
				e.Pop()
			}
			return
		}
		exts, _ := e.Extensions(nil)
		for _, w := range exts {
			e.Push(w)
			rec(d + 1)
			e.Pop()
		}
	}
	rec(0)
	return count
}

// countJob builds a depth-k enumeration job that counts complete embeddings.
func countJob(g *graph.Graph, kind subgraph.Kind, plan *pattern.Plan, depth int, counter *atomic.Int64) Job {
	var w step.Workflow
	for i := 0; i < depth; i++ {
		w = append(w, step.ExtendP())
	}
	w = append(w, step.VisitP(func(e *subgraph.Embedding) { counter.Add(1) }))
	return Job{Graph: g, Kind: kind, Plan: plan, Workflow: w}
}

func TestCountsMatchReferenceAcrossConfigs(t *testing.T) {
	g := randomGraph(40, 0.15, 2, 11)
	want := refCount(g, subgraph.VertexInduced, nil, 3)
	if want == 0 {
		t.Fatal("degenerate test graph")
	}
	configs := []struct {
		Config
		tcp bool
	}{
		{Config{Workers: 1, CoresPerWorker: 1, WS: WSNone}, false},
		{Config{Workers: 1, CoresPerWorker: 4, WS: WSNone}, false},
		{Config{Workers: 1, CoresPerWorker: 4, WS: WSInternal}, false},
		{Config{Workers: 3, CoresPerWorker: 2, WS: WSExternal}, false},
		{Config{Workers: 3, CoresPerWorker: 2, WS: WSBoth}, false},
		{Config{Workers: 2, CoresPerWorker: 2, WS: WSBoth}, true},
	}
	for _, cfg := range configs {
		name := fmt.Sprintf("w%dc%d-%v-tcp%v", cfg.Workers, cfg.CoresPerWorker, cfg.WS, cfg.tcp)
		t.Run(name, func(t *testing.T) {
			var counter atomic.Int64
			res, err := runIn(t, cfg.Config, cfg.tcp, g, func(g *graph.Graph) Job {
				return countJob(g, subgraph.VertexInduced, nil, 3, &counter)
			})
			if err != nil {
				t.Fatal(err)
			}
			if counter.Load() != want {
				t.Errorf("counted %d embeddings, want %d", counter.Load(), want)
			}
			if res.TotalSubgraphs() != want {
				t.Errorf("metrics subgraphs=%d, want %d", res.TotalSubgraphs(), want)
			}
			if res.TotalEC() == 0 {
				t.Error("no extension cost recorded")
			}
		})
	}
}

func TestEdgeInducedAndPatternInducedJobs(t *testing.T) {
	g := randomGraph(30, 0.2, 2, 5)
	rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSBoth})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	wantE := refCount(g, subgraph.EdgeInduced, nil, 2)
	var ce atomic.Int64
	if _, err := rt.Run(context.Background(), countJob(g, subgraph.EdgeInduced, nil, 2, &ce)); err != nil {
		t.Fatal(err)
	}
	if ce.Load() != wantE {
		t.Errorf("edge-induced count=%d, want %d", ce.Load(), wantE)
	}

	plan, err := pattern.NewPlan(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	wantP := refCount(g, subgraph.PatternInduced, plan, 3)
	var cp atomic.Int64
	if _, err := rt.Run(context.Background(), countJob(g, subgraph.PatternInduced, plan, 3, &cp)); err != nil {
		t.Fatal(err)
	}
	if cp.Load() != wantP {
		t.Errorf("pattern-induced count=%d, want %d", cp.Load(), wantP)
	}
}

func TestAggregationAcrossWorkers(t *testing.T) {
	g := randomGraph(25, 0.25, 3, 7)
	want := refCount(g, subgraph.VertexInduced, nil, 3)

	spec := &step.AggSpec{
		Name:  "motifs",
		Proto: agg.New[string, int64](agg.SumInt64),
		Emit: func(e *subgraph.Embedding, local agg.Store) {
			code := e.Pattern().Canonical().Code
			local.(*agg.Aggregation[string, int64]).Add(code, 1)
		},
	}
	job := Job{
		Graph: g, Kind: subgraph.VertexInduced,
		Workflow: step.Workflow{step.ExtendP(), step.ExtendP(), step.ExtendP(), step.AggregateP(spec)},
	}
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			res, err := runIn(t, Config{Workers: 3, CoresPerWorker: 2, WS: WSBoth}, tcp, g, func(g *graph.Graph) Job {
				j := job
				j.Graph = g
				return j
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := agg.Typed[string, int64](res.Aggregations, "motifs")
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			a.Range(func(k string, v int64) bool { total += v; return true })
			if total != want {
				t.Errorf("aggregated total=%d, want %d", total, want)
			}
			if a.Len() == 0 {
				t.Error("no distinct patterns found")
			}
		})
	}
}

func TestMultiStepAggregationFilter(t *testing.T) {
	// FSM-lite over edges: count single-edge patterns, keep patterns with
	// count >= threshold, then grow filtered embeddings and count again.
	g := randomGraph(25, 0.25, 2, 13)
	const threshold = 10

	mkSpec := func(name string) *step.AggSpec {
		return &step.AggSpec{
			Name:  name,
			Proto: agg.New[string, int64](agg.SumInt64),
			Emit: func(e *subgraph.Embedding, local agg.Store) {
				local.(*agg.Aggregation[string, int64]).Add(e.Pattern().Canonical().Code, 1)
			},
		}
	}
	pred := func(e *subgraph.Embedding, s agg.Store) bool {
		a := s.(*agg.Aggregation[string, int64])
		v, ok := a.Get(e.Pattern().Canonical().Code)
		return ok && v >= threshold
	}
	job := Job{
		Graph: g, Kind: subgraph.EdgeInduced,
		Workflow: step.Workflow{
			step.ExtendP(),
			step.AggregateP(mkSpec("freq1")),
			step.AggFilterP("freq1", pred),
			step.ExtendP(),
			step.AggregateP(mkSpec("freq2")),
		},
	}
	rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSBoth})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	for _, s := range res.Steps {
		if !s.Skipped {
			executed++
		}
	}
	if executed != 2 {
		t.Errorf("executed %d steps, want 2", executed)
	}

	// Reference: single-threaded evaluation of the same pipeline.
	freq1 := map[string]int64{}
	e := subgraph.New(g, subgraph.EdgeInduced, nil)
	for w := subgraph.Word(0); int(w) < e.InitialDomain(); w++ {
		e.Push(w)
		freq1[e.Pattern().Canonical().Code]++
		e.Pop()
	}
	freq2 := map[string]int64{}
	for w := subgraph.Word(0); int(w) < e.InitialDomain(); w++ {
		e.Push(w)
		if freq1[e.Pattern().Canonical().Code] >= threshold {
			exts, _ := e.Extensions(nil)
			for _, x := range exts {
				e.Push(x)
				freq2[e.Pattern().Canonical().Code]++
				e.Pop()
			}
		}
		e.Pop()
	}

	a2, err := agg.Typed[string, int64](res.Aggregations, "freq2")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Len() != len(freq2) {
		t.Errorf("freq2 has %d keys, want %d", a2.Len(), len(freq2))
	}
	a2.Range(func(k string, v int64) bool {
		if freq2[k] != v {
			t.Errorf("freq2[%q]=%d, want %d", k, v, freq2[k])
		}
		return true
	})
}

func TestWorkStealingHappensOnSkewedInput(t *testing.T) {
	// Whether a steal actually lands before the job drains depends on OS
	// scheduling (on a single-CPU host one goroutine can occasionally
	// finish the whole star before a thief wakes), so the steal
	// observation is retried; the count must be exact on every attempt.
	g := starGraph(600)
	rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSBoth})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	want := refCount(g, subgraph.VertexInduced, nil, 3)
	for attempt := 0; attempt < 5; attempt++ {
		var counter atomic.Int64
		res, err := rt.Run(context.Background(), countJob(g, subgraph.VertexInduced, nil, 3, &counter))
		if err != nil {
			t.Fatal(err)
		}
		if counter.Load() != want {
			t.Fatalf("count=%d, want %d", counter.Load(), want)
		}
		var steals int64
		for _, s := range res.Steps {
			steals += s.StealsInternal + s.StealsExternal
		}
		if steals > 0 {
			return
		}
		t.Logf("attempt %d: no steals observed, retrying", attempt)
	}
	t.Error("no steals on a maximally skewed input in 5 attempts")
}

func TestAggFilterWithPrecomputedEnv(t *testing.T) {
	// Simulates the FSM loop: a second Run reads an aggregation computed by
	// a first Run through the environment, without a synchronization split.
	g := randomGraph(20, 0.3, 2, 3)
	spec := &step.AggSpec{
		Name:  "support",
		Proto: agg.New[string, int64](agg.SumInt64),
		Emit: func(e *subgraph.Embedding, local agg.Store) {
			local.(*agg.Aggregation[string, int64]).Add(e.Pattern().Canonical().Code, 1)
		},
	}
	rt, err := New(Config{Workers: 1, CoresPerWorker: 2, WS: WSInternal})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	res1, err := rt.Run(context.Background(), Job{
		Graph: g, Kind: subgraph.EdgeInduced,
		Workflow: step.Workflow{step.ExtendP(), step.AggregateP(spec)},
	})
	if err != nil {
		t.Fatal(err)
	}

	var passed atomic.Int64
	res2, err := rt.Run(context.Background(), Job{
		Graph: g, Kind: subgraph.EdgeInduced, Env: res1.Aggregations,
		Workflow: step.Workflow{
			step.ExtendP(),
			step.AggFilterP("support", func(e *subgraph.Embedding, s agg.Store) bool {
				a := s.(*agg.Aggregation[string, int64])
				v, _ := a.Get(e.Pattern().Canonical().Code)
				return v >= 2
			}),
			step.VisitP(func(e *subgraph.Embedding) { passed.Add(1) }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	for _, s := range res2.Steps {
		if !s.Skipped {
			executed++
		}
	}
	if executed != 1 {
		t.Errorf("reading a precomputed aggregation must not split: %d steps", executed)
	}
	if passed.Load() == 0 {
		t.Error("no embeddings passed the precomputed filter")
	}
}

func TestEffectFreeStepSkipped(t *testing.T) {
	g := randomGraph(10, 0.3, 1, 1)
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(context.Background(), Job{
		Graph: g, Kind: subgraph.VertexInduced,
		Workflow: step.Workflow{step.ExtendP(), step.ExtendP()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 1 || !res.Steps[0].Skipped {
		t.Errorf("effect-free workflow should be skipped: %+v", res.Steps)
	}
}

func TestRunErrors(t *testing.T) {
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Run(context.Background(), Job{}); err == nil {
		t.Error("job without graph accepted")
	}
	g := randomGraph(5, 0.5, 1, 1)
	if _, err := rt.Run(context.Background(), Job{Graph: g, Kind: subgraph.PatternInduced}); err == nil {
		t.Error("pattern-induced job without plan accepted")
	}
	plan, _ := pattern.NewPlan(pattern.Triangle())
	if _, err := rt.Run(context.Background(), Job{Graph: g, Kind: subgraph.VertexInduced, Plan: plan}); err == nil {
		t.Error("vertex-induced job with plan accepted")
	}
	if _, err := rt.Run(context.Background(), Job{Graph: g, Kind: subgraph.VertexInduced, Workflow: step.Workflow{
		step.AggFilterP("ghost", func(*subgraph.Embedding, agg.Store) bool { return true }),
	}}); err == nil {
		t.Error("unknown aggregation accepted")
	}
}

func TestCloseAndReuse(t *testing.T) {
	rt, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close() // idempotent
	if _, err := rt.Run(context.Background(), Job{Graph: randomGraph(5, 0.5, 1, 1), Kind: subgraph.VertexInduced,
		Workflow: step.Workflow{step.ExtendP(), step.VisitP(func(*subgraph.Embedding) {})}}); err == nil {
		t.Error("Run after Close succeeded")
	}
}

func TestWSStringAndDefaults(t *testing.T) {
	for _, ws := range []WorkStealing{WSNone, WSInternal, WSExternal, WSBoth, WorkStealing(9)} {
		if ws.String() == "" {
			t.Error("empty WS string")
		}
	}
	cfg := Config{}.withDefaults()
	if cfg.Workers != 1 || cfg.CoresPerWorker != 1 || cfg.idleSleep <= 0 || cfg.WorkerTimeout <= 0 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if (Config{Workers: 3, CoresPerWorker: 4}).TotalCores() != 12 {
		t.Error("TotalCores wrong")
	}
}

func TestSequentialJobsSameRuntime(t *testing.T) {
	g := randomGraph(20, 0.25, 1, 9)
	rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSBoth})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	want := refCount(g, subgraph.VertexInduced, nil, 2)
	for i := 0; i < 3; i++ {
		var c atomic.Int64
		if _, err := rt.Run(context.Background(), countJob(g, subgraph.VertexInduced, nil, 2, &c)); err != nil {
			t.Fatal(err)
		}
		if c.Load() != want {
			t.Fatalf("run %d: count=%d, want %d", i, c.Load(), want)
		}
	}
}

func TestUtilizationMeasured(t *testing.T) {
	g := starGraph(400)
	for _, ws := range []WorkStealing{WSNone, WSInternal} {
		rt, err := New(Config{Workers: 1, CoresPerWorker: 4, WS: ws})
		if err != nil {
			t.Fatal(err)
		}
		var c atomic.Int64
		res, err := rt.Run(context.Background(), countJob(g, subgraph.VertexInduced, nil, 3, &c))
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		s := res.Steps[len(res.Steps)-1]
		if s.Utilization <= 0 || s.Utilization > 1 {
			t.Errorf("ws=%v: utilization=%f out of range", ws, s.Utilization)
		}
	}
}

// cloneProbe is a custom extender whose clones are numbered in the order
// Clone handed them out (the way SamplingEnum derives per-core seeds) and
// record the root words of the core they ended up on.
type cloneProbe struct {
	seq   int // 0 on the prototype, i+1 on the i-th clone
	mu    *sync.Mutex
	roots map[int][]subgraph.Word // by clone number
}

func (p *cloneProbe) Clone() subgraph.CustomExtender {
	p.seq++ // unsynchronised on purpose: the race detector checks the runtime serialises Clone
	return &cloneProbe{seq: p.seq, mu: p.mu, roots: p.roots}
}
func (p *cloneProbe) Reset(*graph.Graph) {}
func (p *cloneProbe) Extensions(e *subgraph.Embedding, dst []subgraph.Word) ([]subgraph.Word, int) {
	return e.DefaultExtensions(dst)
}
func (p *cloneProbe) Pushed(e *subgraph.Embedding, w subgraph.Word) {
	if e.Len() == 1 {
		p.mu.Lock()
		p.roots[p.seq] = append(p.roots[p.seq], w)
		p.mu.Unlock()
	}
}
func (p *cloneProbe) Popped(*subgraph.Embedding) {}

// TestCustomExtenderClonedPerCoreInOrder: the job's custom extender is
// cloned once per core, serially and in core order, before the cores start —
// so core i gets the i-th clone on every run (with SamplingEnum, the same
// seed) and Clone need not be safe for concurrent use. With stealing off,
// core i of 4 consumes exactly the roots i, i+4, ..., which identifies the
// core each clone ran on. A 2×2 run covers clones crossing worker boundaries.
func TestCustomExtenderClonedPerCoreInOrder(t *testing.T) {
	g := randomGraph(40, 0.2, 1, 7)
	for _, shape := range [][2]int{{1, 4}, {2, 2}} {
		for run := 0; run < 3; run++ {
			probe := &cloneProbe{mu: &sync.Mutex{}, roots: map[int][]subgraph.Word{}}
			rt, err := New(Config{Workers: shape[0], CoresPerWorker: shape[1], WS: WSNone})
			if err != nil {
				t.Fatal(err)
			}
			_, err = rt.Run(context.Background(), Job{
				Graph: g, Kind: subgraph.VertexInduced, Custom: probe,
				Workflow: step.Workflow{step.ExtendP(), step.ExtendP(), step.CountP()},
			})
			rt.Close()
			if err != nil {
				t.Fatal(err)
			}
			if probe.seq != 4 || len(probe.roots) != 4 {
				t.Fatalf("%dx%d run %d: %d clones made, %d used, want 4 and 4", shape[0], shape[1], run, probe.seq, len(probe.roots))
			}
			for seq, roots := range probe.roots {
				for _, w := range roots {
					if int(w)%4 != seq-1 {
						t.Fatalf("%dx%d run %d: clone %d ran root %d, which belongs to core %d", shape[0], shape[1], run, seq, w, int(w)%4)
					}
				}
			}
		}
	}
}
