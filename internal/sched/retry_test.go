package sched

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/metrics"
	"fractal/internal/rpc"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// aggCountJob counts embeddings through an aggregation — the retry-safe
// counting path, whose attempt-tagged partials the master discards wholesale
// when an attempt fails. A plain visiting counter would keep a failed
// attempt's increments, so these tests could not distinguish "retried
// correctly" from "double-counted".
func aggCountJob(g *graph.Graph, depth int) Job {
	spec := &step.AggSpec{
		Name:  "count",
		Proto: agg.New[string, int64](agg.SumInt64),
		Emit: func(e *subgraph.Embedding, local agg.Store) {
			local.(*agg.Aggregation[string, int64]).Add("", 1)
		},
	}
	var w step.Workflow
	for i := 0; i < depth; i++ {
		w = append(w, step.ExtendP())
	}
	w = append(w, step.AggregateP(spec))
	return Job{Graph: g, Kind: subgraph.VertexInduced, Workflow: w}
}

// aggCount reads the "count" aggregation from a completed run.
func aggCount(t *testing.T, res *Result) int64 {
	t.Helper()
	a, err := agg.Typed[string, int64](res.Aggregations, "count")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.Get("")
	return v
}

// TestRetryRecoversLostWorker is the tentpole acceptance scenario: worker 1
// is severed mid-step (its first quiescence report kills it), and with
// retries enabled the run must still complete with the exact fault-free
// count — the retry excludes the lost worker and the survivor re-partitions
// the whole root domain.
func TestRetryRecoversLostWorker(t *testing.T) {
	g := randomGraph(30, 0.25, 1, 101)
	want := refCount(g, subgraph.VertexInduced, nil, 3)
	if want == 0 {
		t.Fatal("degenerate test graph")
	}
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

	res, err := rt.Run(context.Background(), aggCountJob(g, 3))
	if err != nil {
		t.Fatalf("run with retries failed: %v", err)
	}
	if got := aggCount(t, res); got != want {
		t.Errorf("count after worker loss = %d, want %d", got, want)
	}
	if script.Stats().Fired == 0 {
		t.Fatal("fault script never fired; the scenario did not run")
	}
	last := res.Steps[len(res.Steps)-1]
	if last.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", last.Attempts)
	}
	if last.Cancelled {
		t.Error("recovered step still marked Cancelled")
	}
	if res.Report.Retries != 1 || res.Report.WorkersLost != 1 {
		t.Errorf("report retries=%d workersLost=%d, want 1/1",
			res.Report.Retries, res.Report.WorkersLost)
	}
}

// TestRetryExhausted verifies the failure shape when every attempt loses a
// worker: a typed *RetryExhaustedError whose Unwrap chain reaches the final
// *WorkerLostError and the underlying transport error.
func TestRetryExhausted(t *testing.T) {
	script := rpc.NewScript()
	script.Sever(0) // the only worker is dead before the job starts
	rt, err := New(Config{
		Workers: 1, CoresPerWorker: 1,
		StepRetries: 2, retryBackoff: time.Millisecond,
		FaultInjector: script,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var counter atomic.Int64
	g := randomGraph(10, 0.3, 1, 102)
	res, err := rt.Run(context.Background(), countJob(g, subgraph.VertexInduced, nil, 2, &counter))
	if err == nil {
		t.Fatal("run against a severed worker succeeded")
	}
	var re *RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RetryExhaustedError", err, err)
	}
	if re.Attempts != 3 || re.Step != 0 {
		t.Errorf("exhausted after attempts=%d step=%d, want 3 attempts of step 0", re.Attempts, re.Step)
	}
	var wl *WorkerLostError
	if !errors.As(err, &wl) {
		t.Fatal("Unwrap chain does not reach *WorkerLostError")
	}
	if wl.Worker != 0 || wl.Phase != "step-start" || wl.Step != 0 {
		t.Errorf("last loss = %+v, want worker 0 during step-start of step 0", wl)
	}
	if !errors.Is(err, rpc.ErrSevered) {
		t.Error("Unwrap chain does not reach the transport's ErrSevered")
	}
	if res == nil || len(res.Steps) == 0 {
		t.Fatal("failed run returned no partial result")
	}
	last := res.Steps[len(res.Steps)-1]
	if !last.Cancelled || last.Attempts != 3 {
		t.Errorf("last step cancelled=%v attempts=%d, want true/3", last.Cancelled, last.Attempts)
	}
	if res.Report.Retries != 2 || res.Report.WorkersLost != 3 {
		t.Errorf("report retries=%d workersLost=%d, want 2/3",
			res.Report.Retries, res.Report.WorkersLost)
	}
}

// TestCancelDuringRetryBackoff verifies the backoff wait is context-aware:
// cancelling mid-backoff returns ctx.Err() promptly instead of sleeping out
// the schedule (or burning the rest of the retry budget).
func TestCancelDuringRetryBackoff(t *testing.T) {
	script := rpc.NewScript()
	script.Sever(0)
	rt, err := New(Config{
		Workers: 1, CoresPerWorker: 1,
		StepRetries: 5, retryBackoff: 2 * time.Second,
		FaultInjector: script,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var counter atomic.Int64
	g := randomGraph(10, 0.3, 1, 102)
	errCh := make(chan error, 1)
	go func() {
		_, err := rt.Run(ctx, countJob(g, subgraph.VertexInduced, nil, 2, &counter))
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // attempt 0 fails instantly; backoff is 2s
	cancelAt := time.Now()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		var re *RetryExhaustedError
		if errors.As(err, &re) {
			t.Error("cancellation misreported as retry exhaustion")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Run did not return")
	}
	if latency := time.Since(cancelAt); latency > time.Second {
		t.Errorf("cancellation during backoff took %v", latency)
	}
}

// TestRetriedAggregationCountsOnce is the exactly-once proof for aggregation
// steps: worker 1's partial is delayed past the worker timeout, so the master
// abandons the attempt while that attempt-0 payload is still in flight and
// lands in the master's mailbox around the retry. Without attempt tagging the
// stale partial would fold into the retry's result and inflate the count;
// with it the retried step commits exactly one attempt's partials.
func TestRetriedAggregationCountsOnce(t *testing.T) {
	g := randomGraph(30, 0.25, 1, 103)
	want := refCount(g, subgraph.VertexInduced, nil, 3)
	script := rpc.NewScript(
		rpc.DelayRule(1, rpc.Master, KindAggData, 0, 1, 400*time.Millisecond),
	)
	rt, err := New(Config{
		Workers: 2, CoresPerWorker: 2, WS: WSBoth,
		StepRetries: 1, retryBackoff: time.Millisecond,
		WorkerTimeout: 150 * time.Millisecond,
		FaultInjector: script,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	res, err := rt.Run(context.Background(), aggCountJob(g, 3))
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := aggCount(t, res); got != want {
		t.Errorf("count = %d, want %d (a mismatch above the reference means a stale partial was double-counted)", got, want)
	}
	if script.Stats().Delayed == 0 {
		t.Fatal("delay rule never fired; the scenario did not run")
	}
	last := res.Steps[len(res.Steps)-1]
	if last.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", last.Attempts)
	}
	if res.Report.WorkersLost != 1 {
		t.Errorf("report workersLost = %d, want 1", res.Report.WorkersLost)
	}
}

// TestRetryDiscardsFailedAttemptCounters holds the report to the same
// exactly-once rule as the aggregations: worker 1's step start is dropped, so
// attempt 0 has worker 0 enumerate its share before the step-start watchdog
// fails the attempt, and worker 0's drain ack delivers those counters. The
// retry's report must equal the fault-free run's — the failed attempt's
// counters are discarded with its partials, not added to the retry's.
func TestRetryDiscardsFailedAttemptCounters(t *testing.T) {
	g := randomGraph(30, 0.25, 1, 104)
	cfg := Config{
		Workers: 2, CoresPerWorker: 2, WS: WSBoth,
		StepRetries: 2, retryBackoff: time.Millisecond,
		WorkerTimeout: 150 * time.Millisecond,
	}
	run := func(script *rpc.Script) StepReport {
		t.Helper()
		c := cfg
		if script != nil {
			c.FaultInjector = script
		}
		rt, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		res, err := rt.Run(context.Background(), aggCountJob(g, 3))
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res.Steps[len(res.Steps)-1]
	}
	want := run(nil)
	if want.EC == 0 || want.Subgraphs == 0 {
		t.Fatalf("degenerate baseline: %+v", want)
	}

	script := rpc.NewScript(rpc.DropRule(rpc.Master, 1, KindStepStart, 0, 1))
	got := run(script)
	if script.Stats().Dropped == 0 {
		t.Fatal("step start was never dropped; the scenario did not run")
	}
	if got.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", got.Attempts)
	}
	if got.EC != want.EC || got.Subgraphs != want.Subgraphs {
		t.Errorf("retried step reports EC=%d subgraphs=%d, fault-free run %d/%d",
			got.EC, got.Subgraphs, want.EC, want.Subgraphs)
	}
	// The retry ran on worker 0 alone: its two cores are all the report
	// covers, and they did all of the work.
	var booked int64
	for _, w := range got.Metrics.CoreWork {
		booked += w
	}
	if len(got.Metrics.CoreWork) != 2 || booked != want.EC+want.Subgraphs {
		t.Errorf("CoreWork=%v sums to %d, want 2 cores summing to %d", got.Metrics.CoreWork, booked, want.EC+want.Subgraphs)
	}
}

// TestStealBalanceWatchdogRetries verifies the check for losses that
// silence nobody: a dropped grant takes its credit with it for good while
// every worker is idle and answers pings. The master must convict the
// missing credit at its first silence probe (Worker -1: no single worker to
// blame or exclude), retry over the same participants, and land on the
// exact count.
//
// The first steal response worker 0 sends worker 1 — the one dropped — is a
// grant by construction: a star's work all hangs off the hub (worker 0's
// root), worker 1 runs dry at once and asks worker 0, and worker 0's first
// Visit holds its core until that request is queued, with the other roots
// still on its stack to give away.
func TestStealBalanceWatchdogRetries(t *testing.T) {
	g := starGraph(400)
	want := refCount(g, subgraph.VertexInduced, nil, 3)
	if want == 0 {
		t.Fatal("degenerate test graph")
	}
	script := rpc.NewScript(rpc.DropRule(0, 1, KindStealResp, 0, 1))
	rt, err := New(Config{
		Workers: 2, CoresPerWorker: 1, WS: WSExternal,
		StepRetries: 1, retryBackoff: time.Millisecond,
		WorkerTimeout: 200 * time.Millisecond,
		FaultInjector: script, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var held atomic.Bool
	job := aggCountJob(g, 3)
	wait := step.VisitP(func(*subgraph.Embedding) {
		if held.Swap(true) {
			return
		}
		for st := rt.workers[0].current(); st.attn.Load()&attnSteal == 0; {
			runtime.Gosched()
		}
	})
	job.Workflow = append(job.Workflow[:3], wait, job.Workflow[3])
	res, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if script.Stats().Dropped == 0 {
		t.Fatal("no steal response was dropped; the scenario did not run")
	}
	if got := aggCount(t, res); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	last := res.Steps[len(res.Steps)-1]
	if last.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", last.Attempts)
	}
	if res.Report.Retries != 1 || res.Report.WorkersLost != 1 {
		t.Errorf("report retries=%d workersLost=%d, want 1/1",
			res.Report.Retries, res.Report.WorkersLost)
	}
	// A probe that finds a core still busy (a slow run) convicts nobody; the
	// first that every participant answers idle, with no credit coming home
	// while it is out, convicts.
	idle := 0
	for _, ev := range res.Report.Trace {
		if ev.Kind == metrics.TraceQuiescenceRound && ev.Value == 0 {
			idle++
		}
	}
	if idle != 1 {
		t.Errorf("%d liveness probes answered all idle, want the one that convicted the lost grant", idle)
	}
}

// TestRetryErrorTypes pins the error surface: WorkerLostError carries the
// step and names the blameless steal-balance case, and RetryExhaustedError
// unwraps to the final loss.
func TestRetryErrorTypes(t *testing.T) {
	anon := &WorkerLostError{Worker: -1, Step: 3, Phase: "steal-balance"}
	if msg := anon.Error(); !strings.Contains(msg, "steal traffic") || !strings.Contains(msg, "step 3") {
		t.Errorf("blameless loss message %q", msg)
	}
	wl := &WorkerLostError{Worker: 2, Step: 1, Phase: "aggregation", Err: rpc.ErrSevered}
	if msg := wl.Error(); !strings.Contains(msg, "worker 2") || !strings.Contains(msg, "step 1") {
		t.Errorf("loss message %q", msg)
	}
	if !errors.Is(wl, rpc.ErrSevered) {
		t.Error("WorkerLostError does not unwrap to its transport error")
	}
	re := &RetryExhaustedError{Step: 1, Attempts: 3, Last: wl}
	if msg := re.Error(); !strings.Contains(msg, "after 3 attempts") {
		t.Errorf("exhaustion message %q", msg)
	}
	var got *WorkerLostError
	if !errors.As(re, &got) || got != wl {
		t.Error("RetryExhaustedError does not unwrap to its last loss")
	}
	if !errors.Is(re, rpc.ErrSevered) {
		t.Error("RetryExhaustedError chain does not reach the transport error")
	}
}
