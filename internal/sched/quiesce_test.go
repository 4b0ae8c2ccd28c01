package sched

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

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
// the step is over. The counterexample itself needs worker 1 to grant work
// while its idle→busy report is held, and a DelayRule holds the router that
// sends that report, so the schedule alone does not produce it; the
// "counterexample" run replays it against the master's termination check
// report by report (DESIGN §6). A checker that ends the step on the newest
// reports alone, without the confirmation wave, fails there.
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
				g := hubGraph(24, 5, 12, int64(seed))
				want := refCount(g, subgraph.VertexInduced, nil, 3)
				var got, late atomic.Int64
				job := countJob(g, subgraph.VertexInduced, nil, 3, &got)
				job.Workflow = append(job.Workflow, step.VisitP(func(*subgraph.Embedding) {
					for _, w := range rt.workers {
						if st := w.current(); st != nil && st.isDone() {
							late.Add(1)
						}
					}
				}))
				res, err := rt.Run(context.Background(), job)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if late.Load() != 0 {
					t.Fatalf("seed %d: %d embeddings processed after the step was declared over", seed, late.Load())
				}
				if got.Load() != want || res.TotalSubgraphs() != want {
					t.Fatalf("seed %d: counted %d (reported %d), want %d", seed, got.Load(), res.TotalSubgraphs(), want)
				}
			}
			if script.Stats().Delayed == 0 {
				t.Fatal("no status report was delayed; the scenario did not run")
			}
		})
	}

	t.Run("counterexample", func(t *testing.T) {
		q := newQuiesceRig(t, Config{}, nil)
		deliver := q.deliver
		// wave waits for one ping at every worker; the step must not end
		// before it.
		wave := func(what string) {
			t.Helper()
			for id := rpc.NodeID(0); id < 3; id++ {
				select {
				case env := <-q.nw[id].Recv():
					if env.Kind != kStatusPing {
						t.Fatalf("%s: worker %d was sent kind %d, want a ping", what, id, env.Kind)
					}
				case err := <-q.done:
					t.Fatalf("%s: the master ended the step (%v) without confirming it", what, err)
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: no ping wave", what)
				}
			}
		}
		// Workers 1 and 2 run dry at once; worker 0 holds the work.
		deliver(statusReportMsg{Worker: 1, Seq: 2})
		deliver(statusReportMsg{Worker: 2, Seq: 2})
		// Worker 0 grants to 1, which adopts (its busy report, Seq 3, is
		// late) and grants to 2, which adopts, runs dry and reports. Worker
		// 0 runs dry. The newest reports say idle, and 1 grant sent equals
		// 1 adopted: 1's stale report hides both its adoption and its grant.
		deliver(statusReportMsg{Worker: 2, Seq: 4, Adopted: 1})
		deliver(statusReportMsg{Worker: 0, Seq: 2, Granted: 1})
		wave("a falsely balanced candidate")
		deliver(statusReportMsg{Worker: 0, Reply: true, Seq: 2, Granted: 1})
		deliver(statusReportMsg{Worker: 2, Reply: true, Seq: 4, Adopted: 1})
		deliver(statusReportMsg{Worker: 1, Reply: true, Seq: 3, Active: 1, Granted: 1, Adopted: 1})
		deliver(statusReportMsg{Worker: 1, Seq: 3, Active: 1, Adopted: 1}) // the late busy report
		// Worker 1 runs dry: now the step is over.
		deliver(statusReportMsg{Worker: 1, Seq: 4, Granted: 1, Adopted: 1})
		wave("the true end")
		deliver(statusReportMsg{Worker: 0, Reply: true, Seq: 2, Granted: 1})
		deliver(statusReportMsg{Worker: 1, Reply: true, Seq: 4, Granted: 1, Adopted: 1})
		deliver(statusReportMsg{Worker: 2, Reply: true, Seq: 4, Adopted: 1})
		q.ended(t)
		if rounds := q.run.rounds; len(rounds) != 2 || rounds[0].Active != 1 || rounds[1].Active != 0 {
			t.Errorf("rounds %+v, want the failed wave (one busy) and the confirming one", rounds)
		}
	})
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
	go func() { q.done <- q.rt.awaitQuiescence(context.Background(), q.run) }()
	return q
}

func (q *quiesceRig) deliver(m statusReportMsg) {
	m.Job = 1
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
		t.Fatal("a confirmed end of the step was not taken")
	}
}

// TestStaleSilenceTickConvictsNobody: the silence timer fires while the
// master is still sending its confirmation wave — the first ping is held up
// past WorkerTimeout — with every answer already queued behind it. The tick
// must not outlive the wave: the answers get a full WorkerTimeout and end
// the step. A plain Timer.Reset keeps a fired tick under go.mod's go 1.22,
// and the select then convicts a worker of "quiescence" with odds 7 in 8 a
// round.
func TestStaleSilenceTickConvictsNobody(t *testing.T) {
	for round := 0; round < 5; round++ {
		script := rpc.NewScript(rpc.DelayRule(rpc.Master, 0, KindStatusPing, 0, 1, 100*time.Millisecond))
		q := newQuiesceRig(t, Config{WorkerTimeout: 50 * time.Millisecond}, script)
		for w := 0; w < 3; w++ {
			q.deliver(statusReportMsg{Worker: w, Seq: 2})
		}
		for w := 0; w < 3; w++ {
			q.deliver(statusReportMsg{Worker: w, Reply: true, Seq: 2})
		}
		q.ended(t)
		if script.Stats().Delayed != 1 {
			t.Fatal("the wave's first ping was not held up")
		}
	}
}

// TestStatusTrafficIsPerTransition: the master's termination traffic is
// per transition, not per unit of wall time. A step whose first Visit spins
// 10 ms and one whose first Visit spins 100 ms send the same status traffic:
// one busy→idle report per worker, one confirmation wave and its answers.
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
	if p10 != p100 || r10 != r100 {
		t.Errorf("10 ms step: %d pings, %d reports; 100 ms step: %d pings, %d reports — want the same", p10, r10, p100, r100)
	}
	if p10 != 2 || r10 != 4 {
		t.Errorf("%d pings and %d reports, want one wave to 2 workers: 2 pings, 2 idle reports and 2 answers", p10, r10)
	}
}
