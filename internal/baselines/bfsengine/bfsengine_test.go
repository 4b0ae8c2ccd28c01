package bfsengine

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"
	"fractal/internal/workload"
)

func k4p() *graph.Graph {
	b := graph.NewBuilder("k4p")
	for i := 0; i < 5; i++ {
		b.AddVertex()
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	b.MustAddEdge(3, 4)
	return b.Build()
}

func TestRunPerLevelCounts(t *testing.T) {
	res, err := Run(k4p(), subgraph.VertexInduced, nil, 3, Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Levels: 5 vertices, 7 edges (2-vertex), 7 connected 3-sets.
	want := []int64{5, 7, 7}
	if len(res.PerLevel) != len(want) {
		t.Fatalf("PerLevel=%v", res.PerLevel)
	}
	for i := range want {
		if res.PerLevel[i] != want[i] {
			t.Errorf("PerLevel[%d]=%d, want %d", i, res.PerLevel[i], want[i])
		}
	}
	if res.Count != 7 {
		t.Errorf("Count=%d, want 7", res.Count)
	}
	if res.PeakStateBytes == 0 || res.EC == 0 {
		t.Error("state/EC not measured")
	}
}

func TestRunWithFilter(t *testing.T) {
	res, err := Run(k4p(), subgraph.VertexInduced, nil, 3, Config{Cores: 2, Filter: subgraph.IsClique})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4 {
		t.Errorf("triangles=%d, want 4", res.Count)
	}
}

func TestRunVisitAtFinalDepth(t *testing.T) {
	var seen atomic.Int64
	_, err := RunVisit(k4p(), subgraph.EdgeInduced, nil, 2, Config{Cores: 3},
		func(e *subgraph.Embedding) {
			if e.NumEdges() != 2 {
				t.Error("visit at wrong depth")
			}
			seen.Add(1)
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() == 0 {
		t.Error("visitor never called")
	}
}

func TestDepthOne(t *testing.T) {
	var seen atomic.Int64
	res, err := RunVisit(k4p(), subgraph.VertexInduced, nil, 1, Config{},
		func(*subgraph.Embedding) { seen.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 5 || seen.Load() != 5 {
		t.Errorf("depth-1 count=%d visits=%d, want 5", res.Count, seen.Load())
	}
}

func TestBudgetEnforced(t *testing.T) {
	_, err := Run(k4p(), subgraph.VertexInduced, nil, 3, Config{MemoryBudget: 8})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err=%v, want ErrOutOfMemory", err)
	}
}

// TestBudgetStopsTheLevel: a level over budget stops as it crosses the
// budget instead of materializing whole first. BA(2000, 8)'s 3-vertex
// level is tens of MB of embeddings; a 1 MB budget must fail the run
// having allocated a small multiple of that.
func TestBudgetStopsTheLevel(t *testing.T) {
	g := workload.BarabasiAlbert("ba-budget", 2000, 8, 1, 3)
	const budget = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(g, subgraph.VertexInduced, nil, 3, Config{Cores: 2, MemoryBudget: budget})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err=%v, want ErrOutOfMemory", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*budget {
		t.Errorf("allocated %d bytes under a %d-byte budget", alloc, budget)
	}
}

func TestQueryKernel(t *testing.T) {
	res, err := Query(k4p(), pattern.Triangle(), 2, 0)
	if err != nil || res.Count != 4 {
		t.Errorf("triangle query=%v,%v, want 4", res, err)
	}
	if _, err := Query(k4p(), pattern.NewBuilder(0).Build(), 1, 0); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestFSMKernel(t *testing.T) {
	b := graph.NewBuilder("fsm")
	for i := 0; i < 4; i++ {
		u := b.AddVertex(1)
		v := b.AddVertex(1)
		b.MustAddEdge(u, v)
	}
	g := b.Build()
	res, err := FSM(g, 3, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 1 {
		t.Errorf("frequent=%d, want 1", len(res.Frequent))
	}
	if res.PerLevel[0] != 1 {
		t.Errorf("PerLevel=%v", res.PerLevel)
	}
}
