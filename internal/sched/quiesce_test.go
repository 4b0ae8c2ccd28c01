package sched

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/graph"
	"fractal/internal/metrics"
	"fractal/internal/rpc"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// kindCounter is a fault injector that faults nothing: it counts the
// messages sent, by envelope kind, and books the steal traffic per worker —
// reqsTo[w] requests sent to worker w, respsFrom[w] answers w sent, with
// answered signalled on each answer.
type kindCounter struct {
	n                 [32]atomic.Int64
	reqsTo, respsFrom [4]atomic.Int64
	answered          chan struct{}
}

func (k *kindCounter) Intercept(from, to rpc.NodeID, kind uint8) rpc.Fault {
	k.n[kind].Add(1)
	switch kind {
	case kStealReq:
		k.reqsTo[to].Add(1)
	case kStealResp:
		k.respsFrom[from].Add(1)
		select {
		case k.answered <- struct{}{}:
		default:
		}
	}
	return rpc.Fault{}
}

// awaitAnswered waits for every worker to have answered each steal request
// sent to it exactly once — answers still in flight when a run returns are
// waited for — and fails the test otherwise.
func (k *kindCounter) awaitAnswered(t *testing.T, what string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for w := range k.reqsTo {
		for {
			in, out := k.reqsTo[w].Load(), k.respsFrom[w].Load()
			if in == out {
				break
			}
			if out > in {
				t.Fatalf("%s: worker %d was sent %d steal requests and answered %d", what, w, in, out)
			}
			select {
			case <-k.answered:
			case <-deadline:
				t.Fatalf("%s: worker %d was sent %d steal requests and answered %d", what, w, in, out)
			}
		}
	}
}

// TestDelayedStatusCannotEndStep holds the master to its termination rule
// when status reports arrive late and out of order.
//
// End to end, every status report of worker 1 is held back by 30 ms while
// steals move work between the workers: counts must equal the reference on
// every seed, and no embedding may be processed after any worker was told
// the step is over. The "counterexample" run replays, report by report,
// the schedule that defeats a check of the newest reports alone (DESIGN
// §6): every report says idle while a worker that adopted a grant, and
// whose adoption no report shows, still holds work. Its credit is missing,
// so the master waits; a master that ends on idle reports, or that keeps a
// worker's last report instead of its largest, fails there.
func TestDelayedStatusCannotEndStep(t *testing.T) {
	const seeds = 20
	for _, shape := range []Config{{Workers: 2, CoresPerWorker: 2}, {Workers: 3, CoresPerWorker: 1}} {
		t.Run(fmt.Sprintf("%dx%d", shape.Workers, shape.CoresPerWorker), func(t *testing.T) {
			script := rpc.NewScript(rpc.DelayRule(1, rpc.Master, KindStatusReport, 0, 0, 30*time.Millisecond))
			cfg := shape
			cfg.WS, cfg.FaultInjector = WSBoth, script
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			for seed := 0; seed < seeds; seed++ {
				countWithoutLateWork(t, rt, hubGraph(24, 5, 12, int64(seed)), nil)
			}
			if script.Stats().Delayed == 0 {
				t.Fatal("no status report was delayed; the scenario did not run")
			}
		})
	}

	t.Run("counterexample", func(t *testing.T) {
		q := newQuiesceRig(t, Config{}, nil)
		// Three participants hold 2^-2 each; the master holds the rest.
		// Workers 1 and 2 run dry at once; worker 0 holds the work.
		q.deliver(statusReportMsg{Worker: 1, Returned: piece(2)})
		q.deliver(statusReportMsg{Worker: 2, Returned: piece(2)})
		// Worker 0 grants to 1 (2^-3 goes, 2^-3 stays), 1 grants to 2 (2^-4
		// and 2^-4); 2 runs dry and returns what it adopted, and 0 runs dry.
		// Every newest report says idle, a late copy of 2's first report
		// arrives last, and worker 1 is busy with 2^-4.
		q.deliver(statusReportMsg{Worker: 2, Returned: sumOf(piece(2), piece(4))})
		q.deliver(statusReportMsg{Worker: 0, Returned: piece(3)})
		q.deliver(statusReportMsg{Worker: 2, Returned: piece(2)})
		select {
		case err := <-q.done:
			t.Fatalf("the master ended the step (%v) with worker 1's 2^-4 out", err)
		case <-time.After(100 * time.Millisecond):
		}
		// Worker 1 runs dry: now the step is over.
		q.deliver(statusReportMsg{Worker: 1, Returned: sumOf(piece(2), piece(4))})
		q.ended(t)
		if len(q.run.rounds) != 0 {
			t.Errorf("rounds %+v, want no probe", q.run.rounds)
		}
	})
}

// countWithoutLateWork runs a 3-vertex count on g, with the custom
// extender when it is not nil, and requires the reference count, with no
// embedding processed after any worker was told the step is over.
func countWithoutLateWork(t *testing.T, rt *Runtime, g *graph.Graph, custom subgraph.CustomExtender) {
	t.Helper()
	want := refCount(g, subgraph.VertexInduced, nil, 3)
	var got, late atomic.Int64
	job := countJob(g, subgraph.VertexInduced, nil, 3, &got)
	job.Custom = custom
	job.Workflow = append(job.Workflow, step.VisitP(func(*subgraph.Embedding) {
		for _, w := range rt.workers {
			if st := w.current(); st != nil && st.stopping() {
				late.Add(1)
			}
		}
	}))
	res, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	if late.Load() != 0 {
		t.Fatalf("%s: %d embeddings processed after the step was declared over", g.Name(), late.Load())
	}
	if got.Load() != want || res.TotalSubgraphs() != want {
		t.Fatalf("%s: counted %d (reported %d), want %d", g.Name(), got.Load(), res.TotalSubgraphs(), want)
	}
}

// twoHubs is two hubs, 0 and 2, each adjacent to every vertex from 3 on,
// plus the edge 0-1 and random chords among the spokes. On two one-core
// workers worker 0 holds the roots 0 and 2 and worker 1 roots with nothing
// under them, so worker 1 runs dry at once and its first steal is root 2.
func twoHubs(n, chords int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(fmt.Sprintf("twoHubs-%d", seed))
	for i := 0; i < n; i++ {
		b.AddVertex()
	}
	b.MustAddEdge(0, 1)
	for v := 3; v < n; v++ {
		b.MustAddEdge(0, graph.VertexID(v))
		b.MustAddEdge(2, graph.VertexID(v))
	}
	seen := map[[2]int]bool{}
	for i := 0; i < chords; i++ {
		u, v := 3+rng.Intn(n-3), 3+rng.Intn(n-3)
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			b.MustAddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

// slowHubs is a custom extender that spends d in every extension call under
// root 2 and d/10 under root 0: root 2's subtree outlasts everything else.
type slowHubs struct{ d time.Duration }

func (p *slowHubs) Clone() subgraph.CustomExtender            { return p }
func (p *slowHubs) Reset(*graph.Graph)                        {}
func (p *slowHubs) Popped(*subgraph.Embedding)                {}
func (p *slowHubs) Pushed(*subgraph.Embedding, subgraph.Word) {}
func (p *slowHubs) Extensions(e *subgraph.Embedding, dst []subgraph.Word) ([]subgraph.Word, int) {
	d := map[subgraph.Word]time.Duration{0: p.d / 10, 2: p.d}[e.Words()[0]]
	for start := time.Now(); time.Since(start) < d; {
	}
	return e.DefaultExtensions(dst)
}

// TestCreditGrantInFlightHoldsStepEnd is the schedule a check of the newest
// reports alone gets wrong, run end to end. Worker 1 runs dry, steals root
// 2 from worker 0 and works on it slowly; worker 0 runs dry, steals back
// from worker 1 and runs dry again. The fault layer loses worker 1's second
// status report, so the master's newest word from it is older than the
// reports worker 0 sends after it, and holds each answer worker 1 sends
// worker 0 for 2 ms, so a work-carrying grant is in flight for that long —
// far less than WorkerTimeout. Every report the master holds then says idle
// while worker 1 is busy. The master must never end a step while worker 1's
// work or a grant is out: counts equal the reference and no embedding is
// processed after a worker was told the step is over.
func TestCreditGrantInFlightHoldsStepEnd(t *testing.T) {
	var held int64
	for seed := 0; seed < 16; seed++ {
		script := rpc.NewScript(
			rpc.DropRule(1, rpc.Master, KindStatusReport, 1, 1),
			rpc.DelayRule(1, 0, KindStealResp, 0, 0, 2*time.Millisecond),
		)
		rt, err := New(Config{Workers: 2, CoresPerWorker: 1, WS: WSExternal, WorkerTimeout: 150 * time.Millisecond, FaultInjector: script})
		if err != nil {
			t.Fatal(err)
		}
		countWithoutLateWork(t, rt, twoHubs(200, 40, int64(seed)), &slowHubs{d: 200 * time.Microsecond})
		rt.Close()
		if st := script.Stats(); st.Dropped != 1 {
			t.Fatalf("seed %d: faults %+v, want worker 1's second report dropped", seed, st)
		}
		held += script.Stats().Delayed
	}
	if held == 0 {
		t.Fatal("worker 1 never answered worker 0: no grant was held in flight")
	}
}

// TestCreditLostReportHealedByProbe: the only status report worker 1 sends,
// its return of all its credit, is lost. The silence probe's answer carries
// the same returned total, so the step ends in its first attempt, after one
// probe — journalled in the report and the trace — with the exact count.
func TestCreditLostReportHealedByProbe(t *testing.T) {
	g := randomGraph(30, 0.25, 1, 101)
	script := rpc.NewScript(rpc.DropRule(1, rpc.Master, KindStatusReport, 0, 1))
	rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSInternal, WorkerTimeout: 100 * time.Millisecond, FaultInjector: script, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(context.Background(), aggCountJob(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := aggCount(t, res), refCount(g, subgraph.VertexInduced, nil, 3); got != want {
		t.Errorf("count %d, want %d", got, want)
	}
	last, traced := res.Steps[len(res.Steps)-1], 0
	for _, ev := range res.Report.Trace {
		if ev.Kind == metrics.TraceQuiescenceRound {
			traced++
		}
	}
	if script.Stats().Dropped != 1 || last.Attempts != 1 || last.RoundsTotal != 1 || traced != 1 || res.Report.Retries != 0 {
		t.Errorf("dropped %d, attempts %d, probes %d (%d traced), retries %d: want 1, 1, 1 (1), 0",
			script.Stats().Dropped, last.Attempts, last.RoundsTotal, traced, res.Report.Retries)
	}
}

// quiesceRig runs the master's termination check alone, for a job 1 step 0
// over three workers whose reports a test delivers by hand; the master's
// sends go through inj when it is set.
type quiesceRig struct {
	nw   map[rpc.NodeID]rpc.Transport
	run  *jobRun
	rt   *Runtime
	done chan error
}

func newQuiesceRig(t *testing.T, cfg Config, inj rpc.FaultInjector) *quiesceRig {
	nw := rpc.NewLoopbackNetwork([]rpc.NodeID{rpc.Master, 0, 1, 2})
	t.Cleanup(func() {
		for _, tr := range nw {
			tr.Close()
		}
	})
	q := &quiesceRig{
		nw: nw, run: &jobRun{key: attemptKey{Job: 1}, parts: []int{0, 1, 2}}, done: make(chan error, 1),
		rt: &Runtime{cfg: cfg.withDefaults(), master: rpc.WithFaultInjector(nw[rpc.Master], inj), inbox: rpc.NewMailbox(rpc.DropWhenFull)},
	}
	_, home := splitUnit(3)
	go func() { q.done <- q.rt.awaitQuiescence(context.Background(), q.run, home) }()
	return q
}

// deliver hands the master a report of a worker running the attempt.
func (q *quiesceRig) deliver(m statusReportMsg) {
	m.Job, m.Running = 1, true
	q.rt.inbox.Put(rpc.Envelope{Kind: kStatusReport, Body: encode(m)})
}

// ended requires the master to have declared the step over.
func (q *quiesceRig) ended(t *testing.T) {
	t.Helper()
	select {
	case err := <-q.done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the step did not end when its credit came home")
	}
}

// TestStaleSilenceTickConvictsNobody: worker 0's report is lost, and after
// WorkerTimeout of silence the master probes; the probe's first ping is held
// up past WorkerTimeout, with every answer queued behind it. No tick may
// outlive the probe: the answers get a full WorkerTimeout, and worker 0's
// brings its credit home and ends the step. A clock armed before the pings
// went out would convict worker 0 of "quiescence" with its answer queued.
func TestStaleSilenceTickConvictsNobody(t *testing.T) {
	for round := 0; round < 5; round++ {
		script := rpc.NewScript(rpc.DelayRule(rpc.Master, 0, KindStatusPing, 0, 1, 100*time.Millisecond))
		q := newQuiesceRig(t, Config{WorkerTimeout: 50 * time.Millisecond}, script)
		for w := 1; w < 3; w++ {
			q.deliver(statusReportMsg{Worker: w, Returned: piece(2)})
		}
		for script.Stats().Delayed == 0 {
			time.Sleep(time.Millisecond)
		}
		for w := 0; w < 3; w++ {
			q.deliver(statusReportMsg{Worker: w, Reply: true, Returned: piece(2)})
		}
		q.ended(t)
		if len(q.run.rounds) != 1 {
			t.Fatalf("%d probes, want the one", len(q.run.rounds))
		}
	}
}

// TestStealBalanceSparesAGrantDuringTheProbe: a probe's answers are taken at
// different moments. Worker 1 answers idle; then worker 0, busy through the
// silence, takes worker 1's queued request, grants it 2^-3, runs dry and
// answers idle with the 2^-3 it kept. Every answer reads idle while the
// grant's credit is in flight, but credit came home during the probe, so
// nobody is convicted: the step ends on worker 1's later return. A master
// that convicts on an all-idle probe alone returns "steal-balance" here.
func TestStealBalanceSparesAGrantDuringTheProbe(t *testing.T) {
	sent := &kindCounter{}
	q := newQuiesceRig(t, Config{WorkerTimeout: 50 * time.Millisecond}, sent)
	q.deliver(statusReportMsg{Worker: 1, Returned: piece(2)})
	q.deliver(statusReportMsg{Worker: 2, Returned: piece(2)})
	for sent.n[kStatusPing].Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	q.deliver(statusReportMsg{Worker: 1, Reply: true, Returned: piece(2)})
	q.deliver(statusReportMsg{Worker: 2, Reply: true, Returned: piece(2)})
	q.deliver(statusReportMsg{Worker: 0, Reply: true, Returned: piece(3)})
	q.deliver(statusReportMsg{Worker: 1, Returned: sumOf(piece(2), piece(3))})
	q.ended(t)
	if len(q.run.rounds) != 1 || q.run.rounds[0].Active != 0 {
		t.Errorf("rounds %+v, want the one probe, answered all idle", q.run.rounds)
	}
}

// TestStatusTrafficIsPerTransition: the master's termination traffic is
// per transition, not per unit of wall time. A step whose first Visit spins
// 10 ms and one whose first Visit spins 100 ms send the same status traffic:
// one report per worker, returning its credit, and no ping.
func TestStatusTrafficIsPerTransition(t *testing.T) {
	g := randomGraph(20, 0.3, 1, 7)
	traffic := func(spin time.Duration) (pings, reports int64) {
		t.Helper()
		sent := &kindCounter{}
		rt, err := New(Config{Workers: 2, CoresPerWorker: 2, WS: WSInternal, FaultInjector: sent})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		var spun atomic.Bool
		wf := step.Workflow{step.ExtendP(), step.ExtendP(), step.VisitP(func(*subgraph.Embedding) {
			if !spun.Swap(true) {
				for start := time.Now(); time.Since(start) < spin; {
				}
			}
		})}
		res, err := rt.Run(context.Background(), Job{Graph: g, Kind: subgraph.VertexInduced, Workflow: wf})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps[0].Wall < spin {
			t.Fatalf("step took %v, under the %v spin", res.Steps[0].Wall, spin)
		}
		return sent.n[kStatusPing].Load(), sent.n[kStatusReport].Load()
	}
	p10, r10 := traffic(10 * time.Millisecond)
	p100, r100 := traffic(100 * time.Millisecond)
	if p10 != 0 || p100 != 0 || r10 != 2 || r100 != 2 {
		t.Errorf("10 ms step: %d pings, %d reports; 100 ms step: %d pings, %d reports — want 0 pings and one report per worker, 2", p10, r10, p100, r100)
	}
}
