package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/graph"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// longJob returns a job whose single step enumerates for a long time: a
// dense random graph at depth 5 has far more embeddings than any test would
// wait for, so the step is reliably mid-flight when it is interrupted.
func longJob(seed int64, counter *atomic.Int64) Job {
	g := randomGraph(70, 0.4, 1, seed)
	return countJob(g, subgraph.VertexInduced, nil, 5, counter)
}

// whenStarted returns mark, which appends a Visit to a job, and a channel
// the first such Visit to see an embedding closes: the step is under way.
func whenStarted() (mark func(Job) Job, started <-chan struct{}) {
	ch := make(chan struct{})
	var once sync.Once
	return func(job Job) Job {
		job.Workflow = append(job.Workflow, step.VisitP(func(*subgraph.Embedding) { once.Do(func() { close(ch) }) }))
		return job
	}, ch
}

// TestCancellationTCP is the acceptance scenario: a job on a master with two
// ServeWorkers over TCP is cancelled via context, RunSpec returns within
// 100ms wrapping context.Canceled with the partial step marked Cancelled,
// and the runtime remains usable for a subsequent successful job.
func TestCancellationTCP(t *testing.T) {
	rt := listenRuntime(t, Config{CoresPerWorker: 2, WS: WSBoth}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var counter atomic.Int64
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	mark, started := whenStarted()
	spec := testSpec(t, randomGraph(70, 0.4, 1, 29), func(g *graph.Graph) Job {
		return mark(countJob(g, subgraph.VertexInduced, nil, 5, &counter))
	})
	go func() {
		res, err := rt.RunSpec(ctx, spec, nil)
		ch <- outcome{res, err}
	}()

	<-started
	cancelAt := time.Now()
	cancel()
	var o outcome
	select {
	case o = <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Run did not return")
	}
	if latency := time.Since(cancelAt); latency > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want <= 100ms", latency)
	}
	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("err=%v, want wrapped context.Canceled", o.err)
	}
	if o.res == nil || len(o.res.Steps) == 0 {
		t.Fatal("cancelled Run returned no partial result")
	}
	last := o.res.Steps[len(o.res.Steps)-1]
	if !last.Cancelled {
		t.Errorf("last step not marked Cancelled: %+v", last)
	}
	if last.AbandonedExts == 0 {
		t.Error("cancelled mid-enumeration but no abandoned extensions recorded")
	}

	// The runtime must remain usable: run a small job to completion.
	small := randomGraph(15, 0.3, 1, 31)
	want := refCount(small, subgraph.VertexInduced, nil, 2)
	var c2 atomic.Int64
	res, err := rt.RunSpec(context.Background(), testSpec(t, small, func(g *graph.Graph) Job {
		return countJob(g, subgraph.VertexInduced, nil, 2, &c2)
	}), nil)
	if err != nil {
		t.Fatalf("job after cancellation failed: %v", err)
	}
	if c2.Load() != want || res.TotalSubgraphs() != want {
		t.Errorf("post-cancellation count=%d (reported %d), want %d", c2.Load(), res.TotalSubgraphs(), want)
	}
}

// TestCancelBeforeRun verifies an already-cancelled context fails fast
// without starting any step.
func TestCancelBeforeRun(t *testing.T) {
	rt, err := New(Config{Workers: 1, CoresPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var counter atomic.Int64
	res, err := rt.Run(ctx, longJob(37, &counter))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res != nil {
		for _, s := range res.Steps {
			if !s.Skipped && !s.Cancelled {
				t.Errorf("step executed under a dead context: %+v", s)
			}
		}
	}
	if counter.Load() != 0 {
		t.Errorf("%d embeddings processed under a dead context", counter.Load())
	}
}

// TestWorkerLostFailsJob kills a worker's transport mid-job: the master
// must fail the job with a typed *WorkerLostError instead of waiting for a
// step end that never comes, and the runtime must still shut down cleanly.
func TestWorkerLostFailsJob(t *testing.T) {
	rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSBoth, WorkerTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var counter atomic.Int64
	errCh := make(chan error, 1)
	mark, started := whenStarted()
	job := mark(longJob(17, &counter))
	go func() {
		_, err := rt.Run(context.Background(), job)
		errCh <- err
	}()
	<-started
	rt.workers[1].tr.Close() // the worker is gone mid-job

	select {
	case err := <-errCh:
		var wl *WorkerLostError
		if !errors.As(err, &wl) {
			t.Fatalf("err=%v (%T), want *WorkerLostError", err, err)
		}
		if wl.Worker != 1 {
			t.Errorf("lost worker=%d, want 1", wl.Worker)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job did not fail after worker loss")
	}
}

// TestSequentialCancellations stresses cancel-then-reuse: several cancelled
// jobs in a row must each drain cleanly and never poison the next run.
func TestSequentialCancellations(t *testing.T) {
	rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSBoth})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		var counter atomic.Int64
		_, err := rt.Run(ctx, longJob(int64(41+i), &counter))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: err=%v, want context.DeadlineExceeded", i, err)
		}
	}
	small := randomGraph(12, 0.4, 1, 43)
	want := refCount(small, subgraph.VertexInduced, nil, 2)
	var c atomic.Int64
	if _, err := rt.Run(context.Background(), countJob(small, subgraph.VertexInduced, nil, 2, &c)); err != nil {
		t.Fatal(err)
	}
	if c.Load() != want {
		t.Errorf("count after cancellations=%d, want %d", c.Load(), want)
	}
}
