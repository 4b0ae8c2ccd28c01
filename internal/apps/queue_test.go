package apps

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"fractal"
	"fractal/internal/workload"
)

// A Context runs one job at a time: jobs submitted concurrently queue behind
// the running one. Before they did, every step start of one job cancelled
// the other's step on each worker, and both jobs failed with a
// WorkerLostError after a WorkerTimeout of silence.

// queueTimeout is the WorkerTimeout of the queue tests, with no step
// retries: a job that loses a worker fails rather than hides it.
const queueTimeout = 2 * time.Second

// cliquesTwiceAtOnce submits Cliques(k) over path's graph from two goroutines
// at once and holds both counts to the oracle: neither job loses a worker.
func cliquesTwiceAtOnce(t *testing.T, fc *fractal.Context, path string, k int) {
	t.Helper()
	_, load := inProcessOracle(t)
	want, _, err := cliquesOracle(load(path), k)
	if err != nil {
		t.Fatal(err)
	}
	g := loadOn(t, fc, path)
	type out struct {
		n   int64
		res *fractal.Result
		err error
	}
	start := make(chan struct{})
	outs := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			<-start
			n, res, err := Cliques(bg, fc, g, k)
			outs <- out{n, res, err}
		}()
	}
	close(start)
	for i := 0; i < 2; i++ {
		o := <-outs
		if o.err != nil {
			t.Errorf("job %d: %v", i, o.err)
			continue
		}
		if o.n != want {
			t.Errorf("job %d: %d %d-cliques, want %d", i, o.n, k, want)
		}
		if rep := o.res.Report; rep.WorkersLost != 0 || rep.Retries != 0 {
			t.Errorf("job %d: %d workers lost, %d retries, want none", i, rep.WorkersLost, rep.Retries)
		}
	}
}

// TestConcurrentJobsQueue: two Cliques jobs submitted at once to an
// in-process context of two one-core workers both count exactly.
func TestConcurrentJobsQueue(t *testing.T) {
	path := writeGraphFile(t, workload.ErdosRenyi("queue", 200, 8000, 1, 50))
	fc := inProcess(fractal.WithWorkers(2), fractal.WithCores(1), fractal.WithWorkerTimeout(queueTimeout))(t)
	cliquesTwiceAtOnce(t, fc, path, 4)
}

// TestDistConcurrentJobsQueue is TestConcurrentJobsQueue on a master with
// two ServeWorkers.
func TestDistConcurrentJobsQueue(t *testing.T) {
	path := writeGraphFile(t, workload.ErdosRenyi("dist-queue", 200, 8000, 1, 50))
	master := distMaster(t, fractal.WithStepRetries(0), fractal.WithWorkerTimeout(queueTimeout))
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	startWorker(t, master.ListenAddr(), fractal.WorkerOptions{})
	if err := master.AwaitWorkers(bg, 2); err != nil {
		t.Fatal(err)
	}
	cliquesTwiceAtOnce(t, master, path, 4)
}

// TestQueuedJobCancelled: a job queued behind a running one returns when its
// ctx ends, with no result and the ctx's error, while the running job is
// still held inside a Visit; released, the running job counts exactly.
func TestQueuedJobCancelled(t *testing.T) {
	path := writeGraphFile(t, workload.ErdosRenyi("queue-cancel", 60, 220, 1, 51))
	fc := inProcess(fractal.WithWorkers(2), fractal.WithCores(1), fractal.WithWorkerTimeout(queueTimeout))(t)
	g := loadOn(t, fc, path)
	want, _, err := cliquesOracle(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("degenerate graph: no triangles")
	}

	visiting, hold := make(chan struct{}), make(chan struct{})
	// Released on every way out: a held core would block the context's Close.
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	var once sync.Once
	held := g.VFractoid().Expand(1).Filter(fractal.CliqueFilter).Explore(3).Visit(func(*fractal.Subgraph) {
		once.Do(func() {
			close(visiting)
			<-hold
		})
	})
	type out struct {
		n   int64
		err error
	}
	running := make(chan out, 1)
	go func() {
		n, _, err := held.CountCtx(bg)
		running <- out{n, err}
	}()
	<-visiting

	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	n, res, err := g.VFractoid().Expand(1).Filter(fractal.CliqueFilter).Explore(3).CountCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) || res != nil || n != 0 {
		t.Errorf("queued job: %d, %v, %v; want 0, no result and an error wrapping context.DeadlineExceeded", n, res, err)
	}
	select {
	case o := <-running:
		t.Fatalf("the running job returned (%d, %v) while its Visit was held", o.n, o.err)
	default:
	}

	release()
	if o := <-running; o.err != nil || o.n != want {
		t.Errorf("running job: %d triangles (%v), want %d", o.n, o.err, want)
	}
}
