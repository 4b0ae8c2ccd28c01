package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/agg"
	"fractal/internal/metrics"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// failingStore wraps a real aggregation and fails one Store operation on
// demand, to exercise the worker's aggregation error reporting.
type failingStore struct {
	agg.Store
	mode string // "merge" or "encode"
}

func (f *failingStore) NewEmpty() agg.Store {
	return &failingStore{Store: f.Store.NewEmpty(), mode: f.mode}
}

func (f *failingStore) MergeFrom(other agg.Store) error {
	if f.mode == "merge" {
		return errors.New("injected merge failure")
	}
	if o, ok := other.(*failingStore); ok {
		other = o.Store
	}
	return f.Store.MergeFrom(other)
}

func (f *failingStore) Encode() ([]byte, error) {
	if f.mode == "encode" {
		return nil, errors.New("injected encode failure")
	}
	return f.Store.Encode()
}

// TestAggregationFailureSurfaces is the satellite acceptance test: a step
// whose aggregation partials cannot be merged or encoded must fail the run
// with a typed *AggregationError instead of silently committing a partial
// (wrong) or missing aggregation, and the runtime must stay usable.
func TestAggregationFailureSurfaces(t *testing.T) {
	g := randomGraph(20, 0.3, 2, 17)
	for _, mode := range []string{"merge", "encode"} {
		t.Run(mode, func(t *testing.T) {
			spec := &step.AggSpec{
				Name:  "broken",
				Proto: &failingStore{Store: agg.New[string, int64](agg.SumInt64), mode: mode},
				Emit: func(e *subgraph.Embedding, local agg.Store) {
					inner := local.(*failingStore).Store.(*agg.Aggregation[string, int64])
					inner.Add(e.Pattern().Canonical().Code, 1)
				},
			}
			rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSBoth})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			_, err = rt.Run(context.Background(), Job{
				Graph: g, Kind: subgraph.VertexInduced,
				Workflow: step.Workflow{step.ExtendP(), step.AggregateP(spec)},
			})
			if err == nil {
				t.Fatal("aggregation failure did not fail the run")
			}
			var aggErr *AggregationError
			if !errors.As(err, &aggErr) {
				t.Fatalf("err=%v (%T), want *AggregationError", err, err)
			}
			if len(aggErr.Reasons) == 0 {
				t.Error("AggregationError carries no reasons")
			}
			if aggErr.Worker < 0 {
				t.Errorf("worker-side failure attributed to worker %d", aggErr.Worker)
			}

			// The runtime must remain usable after the failed step.
			var c atomic.Int64
			want := refCount(g, subgraph.VertexInduced, nil, 2)
			if _, err := rt.Run(context.Background(), countJob(g, subgraph.VertexInduced, nil, 2, &c)); err != nil {
				t.Fatalf("run after aggregation failure: %v", err)
			}
			if c.Load() != want {
				t.Errorf("post-failure count=%d, want %d", c.Load(), want)
			}
		})
	}
}

// TestTimePartitionAccounting verifies the steal accounting: busy, idle and
// steal time are disjoint — by construction they partition each core's loop
// lifetime, so their sum can never exceed cores × step wall — and steal time
// covers only a thief's wait for an answer, not the processing of the stolen
// subtree (which the first accounting folded in, inflating StealOverhead).
// Time blocked on the mailbox with nothing asked — the step's tail, when every
// core is dry and waits for the master — is idle time. The lower bound is
// just "cores span the enumeration phase": on machines with few hardware
// threads the step wall includes a teardown tail after the cores exit, so
// cores × wall is not a sound baseline.
func TestTimePartitionAccounting(t *testing.T) {
	g := starGraph(400)
	rt, err := New(Config{Workers: 1, CoresPerWorker: 4, WS: WSInternal})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Every complete embedding contains the hub, so all of them sit in the
	// subtree of the one core whose root partition holds it. The first
	// embedding to arrive is held until a steal request is queued — the other
	// cores run dry at once, and its core polls the queue on its next
	// iteration with two full levels to give away — or until a second core
	// delivers one, which it can only have been granted. So the run cannot
	// finish without a steal, however the host schedules the cores. (It must
	// not simply wait for the stolen work: stacks are private, and a core
	// blocked in user code grants nothing.)
	var entered atomic.Int32
	res, err := rt.Run(context.Background(), Job{
		Graph: g, Kind: subgraph.VertexInduced,
		Workflow: step.Workflow{step.ExtendP(), step.ExtendP(), step.ExtendP(),
			step.VisitP(func(*subgraph.Embedding) {
				if entered.Add(1) > 1 {
					return
				}
				for st := rt.workers[0].current(); st.attn.Load()&attnSteal == 0 && entered.Load() < 2; {
					runtime.Gosched()
				}
			})},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Steps[len(res.Steps)-1]
	m := s.Metrics
	busy := time.Duration(m.BusyTimeNs)
	idle := time.Duration(m.IdleTimeNs)
	steal := time.Duration(m.StealTimeNs)
	if busy <= 0 {
		t.Error("no busy time recorded")
	}
	if idle <= 0 {
		t.Error("no idle time recorded (every core waits out the master's quiescence rounds)")
	}
	if steal <= 0 {
		t.Error("no steal time recorded (three cores waited for a grant)")
	}
	sum := busy + idle + steal
	budget := 4 * s.Wall
	if sum > budget+budget/20 {
		t.Errorf("busy+idle+steal=%v exceeds cores×wall=%v: an interval is double-counted", sum, budget)
	}
	if sum < s.Wall/2 {
		t.Errorf("busy+idle+steal=%v under half the step wall %v: an interval is unaccounted", sum, s.Wall)
	}
	// No work unit goes missing from the cores' books.
	if m.StealsInternal == 0 {
		t.Fatal("no steal happened: the accounting under test was not exercised")
	}
	var booked int64
	for _, w := range m.CoreWork {
		booked += w
	}
	if booked != m.ExtensionTests+m.Subgraphs {
		t.Errorf("per-core work sums to %d, want EC+subgraphs=%d: processed work is missing from the cores' books",
			booked, m.ExtensionTests+m.Subgraphs)
	}
}

// TestTraceJournalRecordsRun is the tentpole acceptance test: a
// Trace-enabled run produces a RunReport whose journal contains step
// start/end, quiescence-round, and steal-attempt events in emission order.
func TestTraceJournalRecordsRun(t *testing.T) {
	g := starGraph(400)
	rt, err := New(Config{Workers: 1, CoresPerWorker: 4, WS: WSInternal, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var c atomic.Int64
	res, err := rt.Run(context.Background(), countJob(g, subgraph.VertexInduced, nil, 3, &c))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("no RunReport on result")
	}
	counts := map[metrics.TraceEventKind]int{}
	for i, ev := range rep.Trace {
		counts[ev.Kind]++
		if i > 0 && ev.Seq <= rep.Trace[i-1].Seq {
			t.Fatalf("trace not in emission order at %d: seq %d then %d", i, rep.Trace[i-1].Seq, ev.Seq)
		}
	}
	for _, kind := range []metrics.TraceEventKind{
		metrics.TraceStepStart, metrics.TraceStepEnd, metrics.TraceStealAttempt,
	} {
		if counts[kind] == 0 {
			t.Errorf("no %v events in trace (got %v)", kind, counts)
		}
	}
	if counts[metrics.TraceStepStart] != counts[metrics.TraceStepEnd] {
		t.Errorf("step starts=%d ends=%d", counts[metrics.TraceStepStart], counts[metrics.TraceStepEnd])
	}
	// A healthy step ends when its credit comes home: it sends no liveness
	// probe, so its journal and the trace hold none (a probe's are checked
	// by TestCreditLostReportHealedByProbe).
	last := rep.Steps[len(rep.Steps)-1]
	if last.RoundsTotal != 0 || len(last.Rounds) != 0 || counts[metrics.TraceQuiescenceRound] != 0 {
		t.Errorf("rounds recorded=%d total=%d, %d trace events, want no probe", len(last.Rounds), last.RoundsTotal, counts[metrics.TraceQuiescenceRound])
	}
	if last.Metrics.Subgraphs == 0 {
		t.Error("step metrics snapshot empty")
	}
}

// TestTraceDisabledByDefault verifies the disabled path: the report exists
// but the journal stays empty.
func TestTraceDisabledByDefault(t *testing.T) {
	rt, err := New(Config{Workers: 1, CoresPerWorker: 2, WS: WSInternal})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var c atomic.Int64
	res, err := rt.Run(context.Background(), countJob(randomGraph(15, 0.3, 1, 3), subgraph.VertexInduced, nil, 2, &c))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("no RunReport on result")
	}
	if len(res.Report.Trace) != 0 || res.Report.TraceDropped != 0 {
		t.Errorf("tracing disabled but journal has %d events (%d dropped)",
			len(res.Report.Trace), res.Report.TraceDropped)
	}
}

// TestTraceRecordsCancellation verifies cancel and drain events reach the
// journal when a step is abandoned.
func TestTraceRecordsCancellation(t *testing.T) {
	rt, err := New(Config{Workers: 1, CoresPerWorker: 2, WS: WSInternal, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var counter atomic.Int64
	res, err := rt.Run(ctx, longJob(41, &counter))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want wrapped context.DeadlineExceeded", err)
	}
	if res == nil || res.Report == nil {
		t.Fatal("cancelled run returned no report")
	}
	var cancels, drains int
	for _, ev := range res.Report.Trace {
		switch ev.Kind {
		case metrics.TraceCancel:
			cancels++
		case metrics.TraceDrain:
			drains++
		}
	}
	if cancels == 0 {
		t.Error("no cancel events in trace")
	}
	if drains == 0 {
		t.Error("no drain events in trace")
	}
}

// TestRunReportJSONRoundTrip verifies the --metrics-out schema survives
// WriteJSON / ReadRunReport intact.
func TestRunReportJSONRoundTrip(t *testing.T) {
	g := starGraph(200)
	rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSBoth, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var c atomic.Int64
	res, err := rt.Run(context.Background(), countJob(g, subgraph.VertexInduced, nil, 3, &c))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("no report")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workers != rep.Workers || back.CoresPerWorker != rep.CoresPerWorker || back.WS != rep.WS {
		t.Errorf("config echo lost: %+v vs %+v", back, rep)
	}
	if len(back.Steps) != len(rep.Steps) {
		t.Fatalf("steps: %d vs %d", len(back.Steps), len(rep.Steps))
	}
	for i := range rep.Steps {
		a, b := rep.Steps[i], back.Steps[i]
		if a.Metrics.Subgraphs != b.Metrics.Subgraphs || a.Metrics.ExtensionTests != b.Metrics.ExtensionTests {
			t.Errorf("step %d metrics lost: %+v vs %+v", i, b.Metrics, a.Metrics)
		}
		if a.RoundsTotal != b.RoundsTotal || len(a.Rounds) != len(b.Rounds) {
			t.Errorf("step %d rounds lost", i)
		}
	}
	if len(back.Trace) != len(rep.Trace) {
		t.Fatalf("trace: %d vs %d events", len(back.Trace), len(rep.Trace))
	}
	for i := range rep.Trace {
		if back.Trace[i].Kind != rep.Trace[i].Kind || back.Trace[i].Seq != rep.Trace[i].Seq {
			t.Fatalf("trace event %d mismatch: %+v vs %+v", i, back.Trace[i], rep.Trace[i])
		}
	}
	if back.Transport.Total() != rep.Transport.Total() {
		t.Errorf("transport totals lost: %+v vs %+v", back.Transport.Total(), rep.Transport.Total())
	}
}

// TestAggregationErrorMessage pins the error text shape.
func TestAggregationErrorMessage(t *testing.T) {
	e := &AggregationError{Worker: 2, Reasons: []string{"a", "b"}}
	msg := e.Error()
	for _, want := range []string{"worker 2", "a", "b"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	m := &AggregationError{Worker: -1, Reasons: []string{"x"}}
	if m.Error() == "" {
		t.Error("empty master-side error")
	}
	_ = fmt.Sprintf("%v", e)
}
