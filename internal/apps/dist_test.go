package apps

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/rpc"
	"fractal/internal/sched"
	"fractal/internal/workload"
)

// Distributed differential suite: the application drivers (Cliques, Motifs,
// FSM) run against a master-mode context serving real ServeWorker instances
// over TCP loopback. Clique and motif counts must be bit-identical to the
// test-side oracles (oracle_test.go) on the same graph file, and FSM to the
// same driver on an in-process context — whose counts oracle_pin_test.go
// pins.

// writeGraphFile persists g as a labeled edge list; distributed specs name
// graphs by path, so master and workers each load this file.
func writeGraphFile(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), g.Name()+".el")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// distMaster builds a master-mode context with the retry budget and short
// loss-detection timeout the loss tests rely on.
func distMaster(t *testing.T, extra ...fractal.Option) *fractal.Context {
	t.Helper()
	opts := []fractal.Option{
		fractal.WithListenAddr("127.0.0.1:0"), fractal.WithCores(2),
		fractal.WithStepRetries(3), fractal.WithRetryBackoff(time.Millisecond),
		fractal.WithWorkerTimeout(600 * time.Millisecond),
	}
	ctx, err := fractal.NewContext(append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return ctx
}

// startWorker serves one in-goroutine worker against the master address and
// returns its stop function (idempotent, also registered as cleanup).
func startWorker(t *testing.T, masterAddr string, opts fractal.WorkerOptions) (stop func()) {
	t.Helper()
	wctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fractal.ServeWorker(wctx, masterAddr, opts)
	}()
	stop = func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

// loadOn loads the graph file on fc. On a master this is what lets the
// drivers ship jobs over it: the handle remembers its path.
func loadOn(t *testing.T, fc *fractal.Context, path string) *fractal.Graph {
	t.Helper()
	g, err := fc.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// inProcessOracle loads the same graph file into a plain context, so the
// distributed runs are compared against the identical parsed graph.
func inProcessOracle(t *testing.T) (*fractal.Context, func(path string) *fractal.Graph) {
	t.Helper()
	ctx := inProcess(fractal.WithCores(2))(t)
	return ctx, func(path string) *fractal.Graph { return loadOn(t, ctx, path) }
}

// inProcess returns a deployment: a constructor of an in-process context
// with the given options, closed with the test.
func inProcess(opts ...fractal.Option) func(*testing.T) *fractal.Context {
	return func(t *testing.T) *fractal.Context {
		t.Helper()
		fc, err := fractal.NewContext(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fc.Close)
		return fc
	}
}

func fsmDistEqual(t *testing.T, label string, got, want *FSMResult) {
	t.Helper()
	if len(want.Frequent) == 0 {
		t.Fatalf("%s: degenerate baseline, nothing frequent", label)
	}
	if len(got.Frequent) != len(want.Frequent) {
		t.Errorf("%s: %d frequent patterns, want %d", label, len(got.Frequent), len(want.Frequent))
	}
	for code, ds := range want.Frequent {
		gds, ok := got.Frequent[code]
		if !ok {
			t.Errorf("%s: pattern %q missing", label, code)
			continue
		}
		if gds.Support() != ds.Support() {
			t.Errorf("%s: pattern %q support %d, want %d", label, code, gds.Support(), ds.Support())
		}
		for pos := range ds.Domains {
			if !slices.Equal(gds.Sorted(pos), ds.Sorted(pos)) {
				t.Errorf("%s: pattern %q position %d domain %v, want %v", label, code, pos, gds.Sorted(pos), ds.Sorted(pos))
			}
		}
	}
	for i, n := range want.PerLevel {
		if i >= len(got.PerLevel) || got.PerLevel[i] != n {
			t.Errorf("%s: PerLevel=%v, want %v", label, got.PerLevel, want.PerLevel)
			break
		}
	}
}

// TestDistCliques runs the clique kernel across two worker instances over
// TCP loopback and compares bit for bit with the in-process kernel.
func TestDistCliques(t *testing.T) {
	path := writeGraphFile(t, workload.ErdosRenyi("dist-cl", 60, 220, 1, 44))
	_, load := inProcessOracle(t)
	want, _, err := cliquesOracle(load(path), 4)
	if err != nil {
		t.Fatal(err)
	}

	master := distMaster(t)
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	got, res, err := Cliques(bg, master, loadOn(t, master, path), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("distributed cliques=%d, want %d", got, want)
	}
	if res == nil || res.Report == nil || res.Report.Workers != 2 {
		t.Errorf("report should record 2 registered workers, got %+v", res.Report)
	}
}

// TestDistMotifs covers the multi-job driver (one spec per generated
// pattern) on a labeled graph, exercising repeated spec distribution and
// retirement on the same worker set.
func TestDistMotifs(t *testing.T) {
	path := writeGraphFile(t, workload.ErdosRenyi("dist-mo", 60, 220, 3, 45))
	oracle, load := inProcessOracle(t)
	want, _, err := motifsOracle(oracle, load(path), 3)
	if err != nil {
		t.Fatal(err)
	}

	master := distMaster(t)
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	got, _, err := Motifs(bg, master, loadOn(t, master, path), 3, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	motifCountsEqual(t, "distributed motifs", 3, got, want)
}

// TestDistMotifsSweep runs the mixed fleet on a master: on a uniform-label
// graph file the decomposition sweep ships as a spec like the enumeration
// jobs, and the auto engine, which sweeps every decomposable pattern here,
// counts exactly what the same driver counts in process — with the sweep's
// step, run by both workers, in the report.
func TestDistMotifsSweep(t *testing.T) {
	path := writeGraphFile(t, workload.BarabasiAlbert("dist-sweep", 80, 4, 1, 52))
	oracle, load := inProcessOracle(t)

	master := distMaster(t)
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	g := loadOn(t, master, path)
	sweepsEveryDecomposable(t, g, 4)
	want, _, err := Motifs(bg, oracle, load(path), 4, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := Motifs(bg, master, g, 4, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	motifCountsEqual(t, "distributed motifs", 4, got, want)
	sweep := res.Report.Steps[0]
	if sweep.Workflow != "EA" || sweep.EC == 0 || len(sweep.Metrics.CoreWork) != 4 {
		t.Errorf("first step %s EC=%d core work %v, want the sweep on 2x2 cores",
			sweep.Workflow, sweep.EC, sweep.Metrics.CoreWork)
	}
}

// TestDistQuery runs a query on a master's two workers: the square
// decomposes (the distance-2 sweep ships as a spec), the house does not
// (the query spec ships its plan), and both give the in-process count.
func TestDistQuery(t *testing.T) {
	path := writeGraphFile(t, workload.BarabasiAlbert("dist-query", 80, 4, 1, 53))
	oracle, load := inProcessOracle(t)
	master := distMaster(t)
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	g := loadOn(t, master, path)
	for name, c := range map[string]struct {
		p      *fractal.Pattern
		decomp bool
	}{"square": {pattern.Cycle(4), true}, "house": {pattern.House(), false}} {
		if ch, err := fractal.ChooseEngine(c.p); err != nil || ch.UseDecomp != c.decomp {
			t.Fatalf("%s: auto picks decomposition %v (%v), want %v", name, ch.UseDecomp, err, c.decomp)
		}
		want, _, err := Query(bg, oracle, load(path), c.p, EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		got, res, err := Query(bg, master, g, c.p, EngineAuto)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want || want == 0 {
			t.Errorf("%s: distributed count %d, in-process %d", name, got, want)
		}
		if cw := res.Report.Steps[0].Metrics.CoreWork; len(cw) != 4 {
			t.Errorf("%s: core work %v, want the job on 2x2 cores", name, cw)
		}
	}
}

// TestDistFSM covers environment threading across processes: each level's
// support aggregations ship to the workers with the next level's spec.
func TestDistFSM(t *testing.T) {
	path := writeGraphFile(t, workload.Community("dist-fsm", 6, 15, 6, 0.8, 4, 46))
	oracle, load := inProcessOracle(t)
	want, err := FSM(bg, oracle, load(path), 8, FSMOptions{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}

	master := distMaster(t)
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	got, err := FSM(bg, master, loadOn(t, master, path), 8, FSMOptions{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	fsmDistEqual(t, "distributed fsm", got, want)
}

// TestDistFSMFrequentEdgeGraph: master and workers each derive a level's
// frequent-edge graph from the graph and the support, so on a multigraph
// whose infrequent parallel edge must stay, FSM across two TCP workers
// equals the in-process run down to every domain.
func TestDistFSMFrequentEdgeGraph(t *testing.T) {
	path := writeGraphFile(t, fsmParallelGraph())
	oracle, load := inProcessOracle(t)
	want, err := FSM(bg, oracle, load(path), 3, FSMOptions{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	master := distMaster(t)
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	got, err := FSM(bg, master, loadOn(t, master, path), 3, FSMOptions{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	fsmDistEqual(t, "distributed fsm on a multigraph", got, want)
}

// TestDistCountersAcrossDeployments holds the run report to one meaning in
// every deployment: the same cliques and FSM jobs over two cores — one
// worker with two, two TCP workers with one each, a master serving two
// one-core workers — count the same extension tests and subgraphs, book all
// of it to the cores that did it, and report every participant's cores and
// time. The counters reach the report inside the message that ends each
// worker's part of the step, so the master row is the one that fails when
// they do not travel (it reported zeros before they did).
func TestDistCountersAcrossDeployments(t *testing.T) {
	clPath := writeGraphFile(t, workload.ErdosRenyi("dist-ctr-cl", 60, 220, 1, 50))
	fsmPath := writeGraphFile(t, workload.Community("dist-ctr-fsm", 6, 15, 6, 0.8, 4, 51))

	deployments := []struct {
		name    string
		workers int
		context func(t *testing.T) *fractal.Context
	}{
		{"in-process 1x2", 1, inProcess(fractal.WithWorkers(1), fractal.WithCores(2))},
		{"tcp 2x1", 2, inProcess(fractal.WithWorkers(2), fractal.WithCores(1), fractal.WithTCP())},
		{"master + 2 workers", 2, func(t *testing.T) *fractal.Context {
			master := distMaster(t, fractal.WithCores(1))
			startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
			startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
			if err := master.AwaitWorkers(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			return master
		}},
	}

	type totals struct{ ec, subgraphs int64 }
	// check verifies the per-step invariants and returns the job's totals.
	check := func(t *testing.T, job string, workers int, steps []fractal.StepReport) totals {
		t.Helper()
		var tot totals
		var peak int64
		executed := 0
		for _, s := range steps {
			if s.Skipped {
				continue
			}
			executed++
			m := s.Metrics
			if s.EC != m.ExtensionTests || s.Subgraphs != m.Subgraphs {
				t.Errorf("%s step %d: EC/Subgraphs %d/%d disagree with the counter block's %d/%d",
					job, s.Index, s.EC, s.Subgraphs, m.ExtensionTests, m.Subgraphs)
			}
			if len(m.CoreWork) != 2 {
				t.Fatalf("%s step %d: CoreWork=%v, want one entry for each of 2 cores", job, s.Index, m.CoreWork)
			}
			if sum := m.CoreWork[0] + m.CoreWork[1]; sum != s.EC+s.Subgraphs {
				t.Errorf("%s step %d: core work sums to %d, want EC+Subgraphs=%d", job, s.Index, sum, s.EC+s.Subgraphs)
			}
			// Cores are in rank order, so with two workers each entry is one
			// worker's: both must have delivered work. Busy time is positive
			// for every core that ran at all.
			for i := 0; workers == 2 && i < 2; i++ {
				if m.CoreWork[i] == 0 {
					t.Errorf("%s step %d: worker %d reports no work: %v", job, s.Index, i, m.CoreWork)
				}
			}
			if m.BusyTimeNs <= 0 || s.Utilization <= 0 {
				t.Errorf("%s step %d: busy=%dns utilization=%v, want both positive", job, s.Index, m.BusyTimeNs, s.Utilization)
			}
			tot.ec += s.EC
			tot.subgraphs += s.Subgraphs
			peak += s.PeakStateBytes
		}
		if executed == 0 || tot.ec == 0 || tot.subgraphs == 0 || peak == 0 {
			t.Fatalf("%s: %d executed steps, EC=%d, subgraphs=%d, peak state %d: nothing was counted",
				job, executed, tot.ec, tot.subgraphs, peak)
		}
		return tot
	}

	var wantCl, wantFSM totals
	for i, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			fc := d.context(t)
			_, res, err := Cliques(bg, fc, loadOn(t, fc, clPath), 3)
			if err != nil {
				t.Fatal(err)
			}
			cl := check(t, "cliques", d.workers, res.Steps)
			fsm, err := FSM(bg, fc, loadOn(t, fc, fsmPath), 8, FSMOptions{MaxEdges: 2})
			if err != nil {
				t.Fatal(err)
			}
			fs := check(t, "fsm", d.workers, fsm.Steps)
			var shipped int64
			for _, s := range fsm.Steps {
				shipped += s.AggShippedBytes
			}
			if shipped == 0 {
				t.Error("fsm: no aggregation bytes reported shipped")
			}
			if i == 0 {
				wantCl, wantFSM = cl, fs
			} else if cl != wantCl || fs != wantFSM {
				t.Errorf("cliques %+v fsm %+v, want the in-process %+v and %+v", cl, fs, wantCl, wantFSM)
			}
		})
	}
}

// TestDistElasticJoin starts a job with one registered worker while a second
// registers concurrently: whether or not the latecomer makes the first step
// attempt, the result must be identical, and it must be a full participant
// of the next job.
func TestDistElasticJoin(t *testing.T) {
	path := writeGraphFile(t, workload.ErdosRenyi("dist-el", 60, 220, 1, 47))
	_, load := inProcessOracle(t)
	want, _, err := cliquesOracle(load(path), 4)
	if err != nil {
		t.Fatal(err)
	}

	master := distMaster(t)
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	type out struct {
		n   int64
		err error
	}
	first := make(chan out, 1)
	g := loadOn(t, master, path)
	go func() {
		n, _, err := Cliques(bg, master, g, 4)
		first <- out{n, err}
	}()
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	r := <-first
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.n != want {
		t.Errorf("cliques during join=%d, want %d", r.n, want)
	}
	if err := master.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	got, res, err := Cliques(bg, master, loadOn(t, master, path), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cliques after join=%d, want %d", got, want)
	}
	if res.Report.Workers != 2 {
		t.Errorf("second job should see 2 workers, report says %d", res.Report.Workers)
	}
}

// TestServeWorkerReleasesGoroutines: a worker that served a job against an
// in-process master and was then cancelled leaves no goroutine behind — not
// its own, and not the master's for it — and closing the master releases
// the rest. Counts settle asynchronously (readers observe closed
// connections), so each check waits as TestCancellationReleasesGoroutines
// does in the root package.
func TestServeWorkerReleasesGoroutines(t *testing.T) {
	path := writeGraphFile(t, workload.ErdosRenyi("dist-leak", 40, 120, 1, 48))
	before := runtime.NumGoroutine()
	master := distMaster(t)
	idle := runtime.NumGoroutine()
	stop := startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Cliques(bg, master, loadOn(t, master, path), 3); err != nil {
		t.Fatal(err)
	}
	stop()
	settles := func(what string, limit int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > limit; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: goroutines leaked: %d, want at most %d", what, runtime.NumGoroutine(), limit)
			}
		}
	}
	settles("worker cancelled", idle)
	master.Close()
	settles("master closed", before)
}

// TestDistWorkerLoss severs one worker process's transport as it ships its
// aggregation partials — the cross-process analog of the chaos suite's
// KindAggData schedule. The master must detect the loss, discard the
// attempt's partials wholesale, and retry on the survivor for an exact
// count.
func TestDistWorkerLoss(t *testing.T) {
	path := writeGraphFile(t, workload.ErdosRenyi("dist-loss", 60, 220, 1, 48))
	_, load := inProcessOracle(t)
	want, _, err := cliquesOracle(load(path), 4)
	if err != nil {
		t.Fatal(err)
	}

	master := distMaster(t)
	// Worker IDs are assigned in registration order; await each registration
	// so the scripted victim deterministically holds ID 0.
	script := rpc.NewScript(rpc.SeverRule(0, rpc.Master, sched.KindAggData, 0, 0))
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{FaultInjector: script})
	if err := master.AwaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	got, res, err := Cliques(bg, master, loadOn(t, master, path), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cliques under worker loss=%d, want %d", got, want)
	}
	if script.Stats().Fired == 0 {
		t.Fatal("fault schedule never fired: the loss path was not exercised")
	}
	if res.Report.WorkersLost == 0 || res.Report.Retries == 0 {
		t.Errorf("report should account the loss and retry, got lost=%d retries=%d",
			res.Report.WorkersLost, res.Report.Retries)
	}
}

// TestDistRejectsUnknownApp pins the failure mode of a spec no worker can
// materialize: a typed error naming the app, not a hang.
func TestDistRejectsUnknownApp(t *testing.T) {
	master := distMaster(t, fractal.WithWorkerTimeout(300*time.Millisecond))
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	_, err := master.RunSpec(context.Background(), fractal.JobSpec{App: "no-such-app", Graph: "nowhere.el"}, nil)
	if err == nil {
		t.Fatal("RunSpec with an unregistered app should fail")
	}
	if !strings.Contains(err.Error(), `"no-such-app"`) {
		t.Errorf("error should name the app: %v", err)
	}
}

// TestDistRejectsWhatCannotShip pins the master-mode contract of the
// drivers: a graph with no file behind it and every engine or option that
// exists only as in-process closures fail with a typed *fractal.ConfigError
// — before any worker is needed — instead of being silently ignored.
func TestDistRejectsWhatCannotShip(t *testing.T) {
	raw := workload.ErdosRenyi("dist-reject", 30, 60, 1, 49)
	master := distMaster(t)
	onDisk := loadOn(t, master, writeGraphFile(t, raw))
	inMemory := master.FromGraph(raw)
	for name, run := range map[string]func() error{
		"in-memory graph": func() error { _, _, err := Cliques(bg, master, inMemory, 3); return err },
		"reduced graph": func() error {
			reduced := onDisk.VFilter(func(graph.VertexID, *graph.Graph) bool { return true })
			_, _, err := Cliques(bg, master, reduced, 3)
			return err
		},
		"kclist": func() error { _, _, err := CliquesKClist(bg, master, onDisk, 3); return err },
	} {
		err := run()
		var cfgErr *fractal.ConfigError
		if !errors.As(err, &cfgErr) || cfgErr.Field != "ListenAddr" {
			t.Errorf("%s on a master: err=%v, want a *fractal.ConfigError on ListenAddr", name, err)
		}
	}
}
