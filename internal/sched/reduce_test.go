package sched

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/rpc"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// reducedCountJob is a two-step count over the graph every third vertex of
// g is cut from, by a Reduce that counts its calls in applied: step 0
// aggregates "count", step 1 reads it and aggregates "count2", both over
// 3-vertex subgraphs.
func reducedCountJob(g *graph.Graph, applied *atomic.Int64) Job {
	job := aggCountJob(g, 3)
	job.Workflow = append(job.Workflow,
		step.AggFilterP("count", func(*subgraph.Embedding, agg.Store) bool { return true }),
		step.AggregateP(&step.AggSpec{
			Name:  "count2",
			Proto: agg.New[string, int64](agg.SumInt64),
			Emit: func(e *subgraph.Embedding, local agg.Store) {
				local.(*agg.Aggregation[string, int64]).Add("", 1)
			},
		}))
	job.Reduce = func(g *graph.Graph) *graph.Graph {
		applied.Add(1)
		return cutEveryThird(g)
	}
	return job
}

func cutEveryThird(g *graph.Graph) *graph.Graph {
	return graph.Reduce(g, func(v graph.VertexID, _ *graph.Graph) bool { return v%3 != 0 }, nil)
}

// TestReduceAppliedWhereEnumerated: a job's Reduce runs once per job where
// the job is enumerated — once in process; on a master with two
// ServeWorkers once per worker and never on the master, which enumerates
// nothing — and not again for a second step or a retried step attempt.
// Both steps count the reduced graph's subgraphs.
func TestReduceAppliedWhereEnumerated(t *testing.T) {
	g := randomGraph(30, 0.25, 1, 103)
	want := refCount(cutEveryThird(g), subgraph.VertexInduced, nil, 3)
	if want == 0 || want == refCount(g, subgraph.VertexInduced, nil, 3) {
		t.Fatal("degenerate test graph")
	}
	check := func(t *testing.T, res *Result, err error, applied *atomic.Int64, wantApplied int64) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"count", "count2"} {
			a, err := agg.Typed[string, int64](res.Aggregations, name)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := a.Get(""); got != want {
				t.Errorf("%s = %d, want %d: the reduced graph's", name, got, want)
			}
		}
		if got := applied.Load(); got != wantApplied {
			t.Errorf("Reduce applied %d times, want %d", got, wantApplied)
		}
	}
	for _, tc := range []struct {
		name    string
		tcp     bool
		applied int64
	}{{"in process", false, 1}, {"master + 2 workers", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var applied atomic.Int64
			res, err := runIn(t, Config{Workers: 2, CoresPerWorker: 1}, tc.tcp, g, func(g *graph.Graph) Job {
				return reducedCountJob(g, &applied)
			})
			check(t, res, err, &applied, tc.applied)
		})
	}
	t.Run("step retried", func(t *testing.T) {
		script := rpc.NewScript(rpc.SeverRule(1, rpc.Master, KindStatusReport, 0, 1))
		rt, err := New(Config{
			Workers: 2, CoresPerWorker: 2, WS: WSBoth,
			StepRetries: 2, retryBackoff: time.Millisecond,
			WorkerTimeout: 300 * time.Millisecond,
			FaultInjector: script,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		var applied atomic.Int64
		res, err := rt.Run(context.Background(), reducedCountJob(g, &applied))
		check(t, res, err, &applied, 1)
		if script.Stats().Fired == 0 || res.Steps[0].Attempts != 2 {
			t.Errorf("step 0 ran %d attempts (fault fired %d times), want a retry", res.Steps[0].Attempts, script.Stats().Fired)
		}
	})
}
