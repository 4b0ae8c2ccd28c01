package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/metrics"
	"fractal/internal/rpc"
	"fractal/internal/sched"
	"fractal/internal/step"
	"fractal/internal/workload"
)

// Per-class labelling suite: FSM labels embeddings through the per-core
// class memo (subgraph.Embedding.Class), so canonical labelling is paid once
// per distinct quick pattern. These tests hold the memo to the per-embedding
// oracle in every deployment, hold its payloads to the bytes the parent
// commit produced, and hold "once per class" to the run report's counters.

func fsmClassBA() *graph.Graph {
	return workload.SkewLabels(workload.BarabasiAlbert("fsm-ba", 600, 2, 1, 7), 6, 7)
}

func fsmClassCommunity() *graph.Graph {
	return workload.Community("fsm-comm", 6, 15, 6, 0.8, 4, 46)
}

// fsmMLAnalog is the repository benchmark's fsm_ml input before renumbering:
// 4500 vertices, 37 skewed labels, mined at support 50 up to 3 edges.
func fsmMLAnalog() *graph.Graph {
	return workload.SkewLabels(workload.BarabasiAlbert("ba_ml", 4500, 2, 37, 1), 37, 2)
}

// TestFSMPayloadGolden pins the bytes of every level's aggregation payload
// to those of the commit before the class memo (PR 15, which labelled every
// embedding through pattern.CodeCache): same keys, same representatives,
// same domains at the same positions, same encoding. The one byte that
// changed since is the tag: a support payload's is 4 since PR 33, and the
// sums are of the payload with the tag every aggregation had before, 1.
func TestFSMPayloadGolden(t *testing.T) {
	for _, tc := range []struct {
		g        *graph.Graph
		support  int64
		perLevel []int
		sums     map[string]string // aggregation name -> sha256 of its Encode()
	}{
		{fsmClassBA(), 12, []int{12, 37, 108}, map[string]string{
			"support1": "b99540bdfb06a64d9e53d598c509eec038200a55e5fcd586d441835ffa7053e2",
			"support2": "63ef02856e447f3cb0c6a696a32793c0f2f4ad3f412718348dc8807a7c4cf348",
			"support3": "ba3e9220d500b1c717785405cf35687f9fa2b5673c851568d7117f31b40649ae",
		}},
		{fsmClassCommunity(), 8, []int{9, 25, 66}, map[string]string{
			"support1": "edb13efee91209b53195dc955a673d1ff68a8306f9cb186673d7602f0034c308",
			"support2": "0870f51e54ed72c1b3033e54c348d331d3d77df5c0f4b5224678a9329841843d",
			"support3": "1fc6aae8f025ba698f92a41494da97c50ecb207d6a1763b6c0c360cf63421a77",
		}},
	} {
		ctx := testCtx(t)
		res, err := FSM(bg, ctx, ctx.FromGraph(tc.g), tc.support, FSMOptions{MaxEdges: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.PerLevel, tc.perLevel) {
			t.Errorf("%s: PerLevel=%v, want %v", tc.g.Name(), res.PerLevel, tc.perLevel)
		}
		for name, want := range tc.sums {
			st, ok := res.Last.Aggregations.Get(name)
			if !ok {
				t.Fatalf("%s: no aggregation %s", tc.g.Name(), name)
			}
			data, err := st.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != 4 {
				t.Errorf("%s %s: payload tag %d, want the support tag 4", tc.g.Name(), name, data[0])
			}
			sum := sha256.Sum256(append([]byte{1}, data[1:]...))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s %s: payload sha256 %s (%d bytes), parent commit's %s", tc.g.Name(), name, got, len(data), want)
			}
		}
	}
}

// TestFSMMatchesPerEmbeddingOracle runs FSM through the memo in every
// deployment shape — cores sharing nothing but the class table, TCP workers,
// worker OS processes, and a step retried after an injected worker loss —
// and requires the keys of support1..3, every domain and every support to
// equal the oracle's, which labels each embedding by Pattern().Canonical().
func TestFSMMatchesPerEmbeddingOracle(t *testing.T) {
	deployments := []struct {
		name    string
		context func(t *testing.T) *fractal.Context
	}{
		{"1x1", inProcess(fractal.WithWorkers(1), fractal.WithCores(1))},
		{"1x2", inProcess(fractal.WithWorkers(1), fractal.WithCores(2))},
		{"tcp 2x1", func(t *testing.T) *fractal.Context { return distPair(t, fractal.WithCores(1)) }},
		{"master + 2 worker processes", func(t *testing.T) *fractal.Context {
			master, _ := procPair(t, workerBin(t))
			return master
		}},
		{"step retried after a worker loss", func(t *testing.T) *fractal.Context {
			// Worker 1 dies shipping its first partials: the attempt's
			// memos and partials are dropped and the survivors start over.
			script := rpc.NewScript(rpc.SeverRule(1, rpc.Master, sched.KindAggData, 0, 1))
			t.Cleanup(func() {
				if script.Stats().Fired == 0 {
					t.Error("the fault never fired: no step was retried")
				}
			})
			return chaosCtx(t, script)
		}},
	}
	for _, tc := range []struct {
		g       *graph.Graph
		support int64
	}{{fsmClassBA(), 12}, {fsmClassCommunity(), 8}} {
		path := writeGraphFile(t, tc.g)
		_, load := inProcessOracle(t)
		want := fsmOracle(t, load(path), tc.support, 3)
		if len(want) != 3 || len(want[2]) == 0 {
			t.Fatalf("%s: degenerate oracle, %d levels", tc.g.Name(), len(want))
		}
		for _, d := range deployments {
			t.Run(tc.g.Name()+"/"+d.name, func(t *testing.T) {
				fc := d.context(t)
				got, err := FSM(bg, fc, loadOn(t, fc, path), tc.support, FSMOptions{MaxEdges: 3})
				if err != nil {
					t.Fatal(err)
				}
				fsmEqualsOracle(t, d.name, got, want)
			})
		}
	}
}

// fsmLevelKeys counts the classes a level's job aggregates — the keys of its
// partials before the support filter — given the earlier levels' supports.
func fsmLevelKeys(tb testing.TB, g *fractal.Graph, env *fractal.Aggregations, level int) int {
	tb.Helper()
	name := "keys" + fsmSupName(level) // the run leaves it in env: one name per level
	f := fractal.Aggregate(fsmCandidates(g, level).WithAggregations(env), name,
		func(e *fractal.Subgraph) string { return e.Class().Code },
		func(*fractal.Subgraph) int64 { return 1 }, agg.SumInt64, nil)
	keys, _, err := fractal.AggregationMapCtx[string, int64](bg, f, name)
	if err != nil {
		tb.Fatal(err)
	}
	return len(keys)
}

// TestFSMDecidedPerClass runs the benchmark's fsm_ml analog and holds the
// run report to the claims: canonical labelling runs once per distinct quick
// pattern and core plus at most once per edge of a class for its
// sub-patterns, quick patterns are a few percent of the embeddings, the
// class filters turn classes and embeddings away (level 3 aggregates 212
// classes to keep 98; it aggregated 3 257 when only the DFS prefix was
// tested), and the job allocates a fiftieth of what labelling every
// embedding did (733 MB before PR 16, 35.7 MB before the memo held its
// entries by value and labelled on its own scratch).
func TestFSMDecidedPerClass(t *testing.T) {
	if testing.Short() {
		t.Skip("one full fsm_ml-sized job")
	}
	ctx := testCtx(t)
	g := ctx.FromGraph(fsmMLAnalog())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := FSM(bg, ctx, g, 50, FSMOptions{MaxEdges: 3})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var m metrics.Snapshot
	for _, s := range res.Steps {
		m.Add(s.Metrics)
	}
	t.Logf("levels %v: %d subgraphs, %d quick patterns, %d canonical labellings, %d classes and %d subgraphs pruned, %d MB allocated",
		res.PerLevel, m.Subgraphs, m.QuickPatterns, m.CanonCalls, m.ClassesPruned, m.SubgraphsPruned, (after.TotalAlloc-before.TotalAlloc)>>20)
	if m.CanonCalls < m.QuickPatterns || m.CanonCalls > 2*m.QuickPatterns {
		t.Errorf("%d canonical labellings for %d quick patterns: want one per memo miss and fewer than that again for sub-patterns", m.CanonCalls, m.QuickPatterns)
	}
	if m.QuickPatterns*20 > m.Subgraphs {
		t.Errorf("%d quick patterns for %d subgraphs: want at most 5%%", m.QuickPatterns, m.Subgraphs)
	}
	if m.ClassesPruned == 0 || m.SubgraphsPruned < 10*m.ClassesPruned {
		t.Errorf("%d classes and %d subgraphs pruned: want classes refused, and tens of embeddings turned away per refusal", m.ClassesPruned, m.SubgraphsPruned)
	}
	for level, want := range map[int]int{2: 119, 3: 212} {
		if got := fsmLevelKeys(t, g, res.Last.Aggregations, level); got != want {
			t.Errorf("level %d aggregates %d classes, want %d", level, got, want)
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got > 733<<20/50 {
		t.Errorf("job allocated %d MB, want at most a fiftieth of 733 MB", got>>20)
	}
}

// BenchmarkFSM is `make bench-fsm`: FSM end to end on the fsm_ml analog,
// in-process on two cores like the benchmark's workload. keys/level3 is the
// number of classes level 3 aggregates before the support filter.
func BenchmarkFSM(b *testing.B) {
	ctx, err := fractal.NewContext(fractal.WithCores(2))
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	g := ctx.FromGraph(fsmMLAnalog())
	var res *FSMResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = FSM(bg, ctx, g, 50, FSMOptions{MaxEdges: 3}); err != nil {
			b.Fatal(err)
		}
		if len(res.Frequent) == 0 {
			b.Fatal("nothing frequent")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fsmLevelKeys(b, g, res.Last.Aggregations, 3)), "keys/level3")
}

// TestFSMLevelsReadFrequentCodes: what a level reads of the levels before it
// is their frequent codes. After FSM every level's frequentL holds exactly
// supportL's codes, each with its MNI support, and the steps of every level
// read no environment entry but frequent1..frequent(L-1) — so a master's
// step starts carry codes and supports, never domains.
func TestFSMLevelsReadFrequentCodes(t *testing.T) {
	g := fsmClassCommunity()
	ctx := testCtx(t)
	res, err := FSM(bg, ctx, ctx.FromGraph(g), 8, FSMOptions{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLevel) != 3 {
		t.Fatalf("PerLevel=%v, want three levels", res.PerLevel)
	}
	env := res.Last.Aggregations
	for level := 1; level <= len(res.PerLevel); level++ {
		sup, err := agg.Typed[string, *agg.DomainSupport](env, fsmSupName(level))
		if err != nil {
			t.Fatal(err)
		}
		freq, err := agg.Typed[string, int64](env, fsmFreqName(level))
		if err != nil {
			t.Fatal(err)
		}
		if freq.Len() != sup.Len() || freq.Len() != res.PerLevel[level-1] {
			t.Errorf("level %d: %d frequent codes, %d supports, PerLevel %d", level, freq.Len(), sup.Len(), res.PerLevel[level-1])
		}
		sup.Range(func(code string, ds *agg.DomainSupport) bool {
			if s, ok := freq.Get(code); !ok || s != ds.Support() {
				t.Errorf("level %d: %s maps %q to %d (%t), want its support %d", level, fsmFreqName(level), code, s, ok, ds.Support())
			}
			return true
		})

		job, err := fsmBuilder{}.Build(fractal.JobSpec{App: AppFSM, Args: map[string]string{
			"support": "8", "level": strconv.Itoa(level)}}, g)
		if err != nil {
			t.Fatal(err)
		}
		reads := map[string]bool{}
		for _, p := range job.Workflow {
			if p.Kind == step.AggFilter {
				reads[p.AggName] = true
			}
		}
		for l := 1; l < level; l++ {
			if !reads[fsmFreqName(l)] {
				t.Errorf("level %d reads no %s", level, fsmFreqName(l))
			}
			delete(reads, fsmFreqName(l))
		}
		if len(reads) > 0 {
			t.Errorf("level %d also reads %v", level, reads)
		}
	}
}
