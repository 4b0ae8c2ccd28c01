package sched

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"fractal/internal/graph"
	"fractal/internal/rpc"
)

// The distributed deployment inside one test process: a -listen master and
// two ServeWorker goroutines over TCP. A master runs jobs as specs, so the
// jobs of this package's tests ship as the "sched-test" app, whose builder
// looks the job up by name in testJobs — master and workers share this
// process, and with it the table.

const testApp = "sched-test"

var (
	testJobsMu sync.Mutex
	testJobs   = map[string]func(*graph.Graph) Job{}
)

type testBuilder struct{}

func (testBuilder) Build(spec JobSpec, g *graph.Graph) (Job, error) {
	testJobsMu.Lock()
	mk := testJobs[spec.Arg("job")]
	testJobsMu.Unlock()
	if mk == nil {
		return Job{}, fmt.Errorf("no test job %q", spec.Arg("job"))
	}
	return mk(g), nil
}

func init() { RegisterApp(testApp, testBuilder{}) }

// listenRuntime starts a master with cfg's cores and stealing mode and two
// ServeWorker goroutines, each sending through workerInj (nil for none), and
// waits for both to register. Everything stops with the test.
func listenRuntime(t testing.TB, cfg Config, workerInj rpc.FaultInjector) *Runtime {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ServeWorker(ctx, rt.ListenAddr(), ServeWorkerOptions{FaultInjector: workerInj})
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	if err := rt.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	return rt
}

// testSpec saves g where master and workers load it and names mk as the
// job a "sched-test" spec over it builds.
func testSpec(t testing.TB, g *graph.Graph, mk func(*graph.Graph) Job) JobSpec {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.fgr")
	if err := graph.SaveFGR(path, g); err != nil {
		t.Fatal(err)
	}
	testJobsMu.Lock()
	name := fmt.Sprint(len(testJobs))
	testJobs[name] = mk
	testJobsMu.Unlock()
	return JobSpec{App: testApp, Graph: path, Args: map[string]string{"job": name}}
}

// runIn runs the job mk builds over g on a fresh deployment: cfg in
// process, or with tcp a master of cfg's cores and stealing mode and two
// ServeWorkers.
func runIn(t *testing.T, cfg Config, tcp bool, g *graph.Graph, mk func(*graph.Graph) Job) (*Result, error) {
	t.Helper()
	if tcp {
		return listenRuntime(t, cfg, nil).RunSpec(context.Background(), testSpec(t, g, mk), nil)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	return rt.Run(context.Background(), mk(g))
}

// joinedRuntime is listenRuntime with the workers' handles: two workers
// joined through joinMaster, the registration ServeWorker performs, so a
// test can hand them a step directly.
func joinedRuntime(t testing.TB, cfg Config) (*Runtime, []*worker) {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	var workers []*worker
	for i := 0; i < 2; i++ {
		w, err := joinMaster(context.Background(), rt.ListenAddr(), ServeWorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			w.tr.Close()
			w.stop()
		})
		workers = append(workers, w)
	}
	if err := rt.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	return rt, workers
}
