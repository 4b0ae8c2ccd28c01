package agg_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/apps"
	"fractal/internal/graph"
	"fractal/internal/workload"
)

// TestReturnedArraysAreNeverRead mines the benchmark's fsm_ml analog (4500
// vertices, 37 skewed labels, support 50, three levels) with every array
// returned to the domain pool overwritten by agg.Sentinel on its way back.
// A domain read after it went back — a value encoded after the fold
// released it, a consumed Aggregate argument still stored somewhere —
// reads sentinels, and the supports differ from a run without the poison.
// They must not, byte for byte: in process on one worker with two cores,
// and on a master with two one-core workers over TCP loopback, where the
// workers' folds, the master's decode and every level's reuse of what the
// levels before it returned all run.
func TestReturnedArraysAreNeverRead(t *testing.T) {
	if testing.Short() {
		t.Skip("mines three FSM levels three times")
	}
	path := filepath.Join(t.TempDir(), "ba_ml.fgr")
	if err := graph.SaveFGR(path, workload.SkewLabels(workload.BarabasiAlbert("ba_ml", 4500, 2, 37, 1), 37, 2)); err != nil {
		t.Fatal(err)
	}
	open := func(opts ...fractal.Option) *fractal.Context {
		fc, err := fractal.NewContext(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fc.Close)
		return fc
	}
	want := mineSupports(t, open(fractal.WithCores(2)), path)

	agg.PoisonReturned(t)
	if got := mineSupports(t, open(fractal.WithCores(2)), path); !bytes.Equal(got, want) {
		t.Error("in process: the supports differ once returned arrays are poisoned")
	}
	master := open(fractal.WithListenAddr("127.0.0.1:0"), fractal.WithCores(1))
	for range 2 {
		serveWorker(t, master.ListenAddr())
	}
	if err := master.AwaitWorkers(bg, 2); err != nil {
		t.Fatal(err)
	}
	if got := mineSupports(t, master, path); !bytes.Equal(got, want) {
		t.Error("master and two workers: the supports differ once returned arrays are poisoned")
	}
}

var bg = context.Background()

// mineSupports runs FSM on the graph file and returns every frequent
// pattern's support as one encoded payload.
func mineSupports(t *testing.T, fc *fractal.Context, path string) []byte {
	t.Helper()
	g, err := fc.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := apps.FSM(bg, fc, g, 50, apps.FSMOptions{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) == 0 {
		t.Fatal("nothing frequent")
	}
	all := agg.New[string, *agg.DomainSupport](agg.ReduceDomainSupport)
	for code, ds := range res.Frequent {
		if ds.Pat == nil || !ds.HasEnoughSupport() {
			t.Fatalf("pattern %q is reported frequent with %v", code, ds)
		}
		all.Add(code, ds)
	}
	data, err := all.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// serveWorker runs one worker process's loop in a goroutine until the test
// ends.
func serveWorker(t *testing.T, masterAddr string) {
	ctx, cancel := context.WithCancel(bg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		fractal.ServeWorker(ctx, masterAddr, fractal.WorkerOptions{})
	}()
	t.Cleanup(func() { cancel(); <-done })
}
