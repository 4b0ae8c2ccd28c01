package sched

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/graph"
	"fractal/internal/metrics"
	"fractal/internal/pattern"
	"fractal/internal/rpc"
	"fractal/internal/step"
	"fractal/internal/subgraph"
	"fractal/internal/wire"
	"fractal/internal/workload"
)

// stealRig is worker 0 of a two-worker attempt with its router switched
// off, so a test plays the router and the cores itself, one protocol step at
// a time, and reads what worker 1 and the master are sent off the wire.
type stealRig struct {
	w            *worker
	st           *stepCtx
	net          map[rpc.NodeID]rpc.Transport
	peer, master <-chan rpc.Envelope
}

// newStealRig installs attempt 3 of step 2 of job 1, a step that aggregates
// nothing, with the given number of cores holding work and the share of one
// of two participants, 2^-1.
func newStealRig(t *testing.T, cores, busy int) *stealRig {
	t.Helper()
	nw := rpc.NewLoopbackNetwork([]rpc.NodeID{rpc.Master, 0, 1})
	t.Cleanup(func() {
		for _, tr := range nw {
			tr.Close()
		}
	})
	cfg := Config{CoresPerWorker: cores}.withDefaults()
	w := newWorker(0, cfg, nil, nw[0])
	st := &stepCtx{
		run: &jobRun{key: attemptKey{1, 2, 3}, step: &step.Step{}, parts: []int{0, 1}}, held: piece(1),
		doneCh: make(chan struct{}), mail: make([]chan grant, cores),
	}
	for i := range st.mail {
		st.mail[i] = make(chan grant, mailboxCap)
	}
	st.active.Store(int64(busy))
	w.cur = st
	return &stealRig{w: w, st: st, net: nw, peer: nw[1].Recv(), master: nw[rpc.Master].Recv()}
}

// remoteReq is a steal request from core 1 of worker 1 for the rig's attempt.
func (r *stealRig) remoteReq() stealReqMsg {
	return stealReqMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 1, Core: 1}
}

// responses drains what worker 1 has been sent so far.
func (r *stealRig) responses(t *testing.T) []stealRespMsg {
	t.Helper()
	var out []stealRespMsg
	for {
		select {
		case env := <-r.peer:
			var m stealRespMsg
			if env.Kind != kStealResp || decode(env.Body, &m) != nil {
				t.Fatalf("worker 1 was sent kind %d, want a steal response", env.Kind)
			}
			out = append(out, m)
		default:
			return out
		}
	}
}

// mailbox drains a core's mailbox.
func (r *stealRig) mailbox(core int) []grant {
	var out []grant
	for {
		select {
		case g := <-r.st.mail[core]:
			out = append(out, g)
		default:
			return out
		}
	}
}

// reports drains the status reports the master has been sent so far.
func (r *stealRig) reports(t *testing.T) []statusReportMsg {
	t.Helper()
	var out []statusReportMsg
	for {
		select {
		case env := <-r.master:
			var m statusReportMsg
			if env.Kind != kStatusReport || decode(env.Body, &m) != nil {
				t.Fatalf("the master was sent kind %d, want a status report", env.Kind)
			}
			out = append(out, m)
		default:
			return out
		}
	}
}

// TestEveryStealRequestAnsweredOnce pins the first protocol invariant: a
// request gets exactly one answer, whichever way the attempt goes, and only
// an answer that carries work to a remote thief carries credit: half the
// donor's.
func TestEveryStealRequestAnsweredOnce(t *testing.T) {
	t.Run("granted by a busy core", func(t *testing.T) {
		r := newStealRig(t, 2, 1)
		c := r.w.cores[0]
		c.stack.PushRoot(0, 4, 40).Take()
		c.stack.PushCopy([]subgraph.Word{0}, []subgraph.Word{5, 6, 7})
		r.w.serveSteal(r.remoteReq())
		if !r.st.post(stealReq{thief: 1}) {
			t.Fatal("a sibling request was refused with a busy core present")
		}
		if !slices.Equal(r.st.held, piece(1)) || len(r.responses(t)) != 0 {
			t.Fatal("queued request: credit split off or a response already out")
		}
		if r.st.attn.Load()&attnSteal == 0 {
			t.Fatal("queued requests did not raise the attention word")
		}
		c.donate(r.st)
		resp := r.responses(t)
		if len(resp) != 1 || !slices.Equal(resp[0].Prefix, []subgraph.Word{4}) || resp[0].Core != 1 || resp[0].Attempt != 3 || !slices.Equal(resp[0].Credit, piece(2)) {
			t.Fatalf("remote thief was sent %+v, want the shallowest extension [4] once, carrying 2^-2", resp)
		}
		if got := r.mailbox(1); len(got) != 1 || got[0].external || !slices.Equal(got[0].prefix, []subgraph.Word{8}) {
			t.Fatalf("sibling thief got %+v, want the next shallowest extension [8] once", got)
		}
		if !slices.Equal(r.st.held, piece(2)) {
			t.Error("the donor does not hold the half it kept: a sibling grant moved credit, or the remote one did not")
		}
		if r.st.attn.Load() != 0 {
			t.Error("attention word still raised with the queue empty")
		}
		c.donate(r.st) // nothing queued: a second call must answer nobody
		if len(r.responses(t))+len(r.mailbox(1)) != 0 {
			t.Error("a request was answered twice")
		}
	})

	t.Run("last busy core runs dry", func(t *testing.T) {
		r := newStealRig(t, 3, 2)
		r.w.serveSteal(r.remoteReq())
		r.st.post(stealReq{thief: 2})
		r.w.cores[0].release(r.st) // one busy core left: the requests wait for it
		if len(r.responses(t))+len(r.mailbox(2))+len(r.reports(t)) != 0 {
			t.Fatal("requests answered, or the worker reported, while a core was still busy")
		}
		r.w.cores[1].release(r.st)
		if rep := r.reports(t); len(rep) != 1 || !rep[0].Running || rep[0].Active != 0 || rep[0].Reply || rep[0].Attempt != 3 || !slices.Equal(rep[0].Returned, piece(1)) {
			t.Fatalf("the master was sent %+v, want one report returning the share, 2^-1", rep)
		}
		if resp := r.responses(t); len(resp) != 1 || len(resp[0].Prefix) != 0 || len(resp[0].Credit) != 0 {
			t.Fatalf("remote thief was sent %+v, want one empty answer", resp)
		}
		if got := r.mailbox(2); len(got) != 1 || len(got[0].prefix) != 0 {
			t.Fatalf("sibling thief got %+v, want one empty answer", got)
		}
		if len(r.st.held) != 0 || r.st.active.Load() != 0 {
			t.Errorf("credit held after the worker ran dry, active %d, want none and 0", r.st.active.Load())
		}
		// With nobody busy a request is refused on arrival: answered at once.
		r.w.serveSteal(r.remoteReq())
		if r.st.post(stealReq{thief: 2}) {
			t.Error("a sibling request was queued with no busy core to serve it")
		}
		if resp := r.responses(t); len(resp) != 1 || len(resp[0].Prefix) != 0 || !slices.Equal(r.st.returned, piece(1)) || len(r.reports(t)) != 0 {
			t.Errorf("request to an idle worker: sent %+v, returned %x", resp, r.st.returned)
		}
	})

	// A step end stops the attempt with stepCtx.stop (through stopCurrent); a
	// cancel may reach it first through the master's interrupt. Either way
	// the queued and late requests get their one empty answer.
	for _, end := range []string{"finish", "cancel"} {
		t.Run("queued at "+end, func(t *testing.T) {
			r := newStealRig(t, 2, 1)
			c := r.w.cores[0]
			c.stack.PushRoot(0, 1, 40)
			r.w.serveSteal(r.remoteReq())
			if end == "finish" {
				r.st.stop()
			} else {
				r.w.interrupt(r.remoteReq().attemptKey)
			}
			if !r.st.stopping() {
				t.Fatalf("the %s did not stop the step", end)
			}
			c.donate(r.st) // a stopped step hands out nothing
			if len(r.responses(t)) != 0 || c.stack.Pending() != 40 {
				t.Fatal("work was granted after the step stopped")
			}
			r.w.serveSteal(r.remoteReq()) // arrives after the stop: refused
			if resp := r.responses(t); len(resp) != 1 || len(resp[0].Prefix) != 0 {
				t.Fatalf("late request was sent %+v, want one empty answer", resp)
			}
			c.release(r.st) // the core stops: it drains the queue
			if resp := r.responses(t); len(resp) != 1 || len(resp[0].Prefix) != 0 {
				t.Fatalf("queued request was sent %+v, want one empty answer", resp)
			}
			if len(r.st.held) != 0 || !slices.Equal(r.st.returned, piece(1)) {
				t.Error("the stopped worker did not return its whole share")
			}
		})
	}

	t.Run("stale attempt", func(t *testing.T) {
		r := newStealRig(t, 1, 1)
		r.w.cores[0].stack.PushRoot(0, 1, 40)
		m := r.remoteReq()
		m.Attempt = 2
		r.w.serveSteal(m)
		if resp := r.responses(t); len(resp) != 1 || len(resp[0].Prefix) != 0 || resp[0].Attempt != 2 {
			t.Fatalf("stale request was sent %+v, want one empty answer tagged with its own attempt", resp)
		}
		if len(r.st.reqs) != 0 {
			t.Errorf("stale request queued %d: it must not be", len(r.st.reqs))
		}
	})
}

// TestActiveCoversWorkInFlight pins the second invariant: the worker's
// activity count includes a granted prefix from the moment it leaves the
// donor's stack (or is taken off the wire) until its thief runs dry, so it
// never reads 0 while a prefix is held or in flight — and a grant taken off
// the wire adds its credit to the worker's in the same step, with no report:
// the master hears only of the count's falls to 0.
func TestActiveCoversWorkInFlight(t *testing.T) {
	r := newStealRig(t, 2, 1)
	r.st.post(stealReq{thief: 1})
	if _, ok := r.st.takeRequest(); !ok || r.st.active.Load() != 2 {
		t.Fatalf("sibling request taken: ok=%v active=%d, want the thief's unit booked before the hand-off", ok, r.st.active.Load())
	}
	// The donor runs dry with the grant still undelivered: not the last unit.
	if left, edge := r.st.retire(); left != nil || edge != nil || r.st.active.Load() != 1 {
		t.Fatalf("active=%d after the donor ran dry, want the in-flight prefix to hold 1", r.st.active.Load())
	}
	// A remote request's prefix leaves the worker: no unit stays behind.
	r.w.serveSteal(r.remoteReq())
	if _, ok := r.st.takeRequest(); !ok || r.st.active.Load() != 1 {
		t.Errorf("remote request taken: active=%d, want 1", r.st.active.Load())
	}
	// A prefix arriving from a remote donor is activity before it is receipt.
	resp := stealRespMsg{attemptKey: attemptKey{1, 2, 3}, Core: 0, Prefix: []subgraph.Word{7, 9}, Credit: piece(3)}
	r.w.routeStealResp(resp)
	held := sumOf(piece(2), piece(3))
	if r.st.active.Load() != 2 || !slices.Equal(r.st.held, held) {
		t.Errorf("routed grant: active=%d held %x, want 2 and 2^-2 + 2^-3", r.st.active.Load(), r.st.held)
	}
	if got := r.mailbox(0); len(got) != 1 || !got[0].external || !slices.Equal(got[0].prefix, resp.Prefix) {
		t.Errorf("core 0 got %+v, want the routed prefix", got)
	}
	resp.Prefix = nil
	r.w.routeStealResp(resp) // an empty answer carries no unit
	resp.Core, resp.Prefix = 9, []subgraph.Word{1}
	r.w.routeStealResp(resp) // nor does a prefix nobody can be handed
	if r.st.active.Load() != 2 || !slices.Equal(r.st.held, held) || len(r.reports(t)) != 0 {
		t.Errorf("active=%d held %x, want 2 and 2^-2 + 2^-3 and no report", r.st.active.Load(), r.st.held)
	}

	idle := newStealRig(t, 1, 0)
	idle.st.held = nil
	idle.w.routeStealResp(stealRespMsg{attemptKey: attemptKey{1, 2, 3}, Core: 0, Prefix: []subgraph.Word{7}, Credit: piece(4)})
	if rep := idle.reports(t); len(rep) != 0 || !slices.Equal(idle.st.held, piece(4)) || idle.st.active.Load() != 1 || len(idle.mailbox(0)) != 1 {
		t.Errorf("grant to an idle worker: the master was sent %+v, held %x, want no report and the grant's 2^-4", rep, idle.st.held)
	}
}

// TestStaleGrantIsDropped pins the third invariant: an answer addressed to
// an earlier step or attempt reaches no core and no counter of the current
// one, and mailboxes are the attempt's own.
func TestStaleGrantIsDropped(t *testing.T) {
	r := newStealRig(t, 1, 0)
	for _, m := range []stealRespMsg{
		{attemptKey: attemptKey{1, 2, 2}, Prefix: []subgraph.Word{1}, Credit: piece(2)},
		{attemptKey: attemptKey{1, 1, 3}, Prefix: []subgraph.Word{1}, Credit: piece(2)},
		{attemptKey: attemptKey{0, 2, 3}, Prefix: []subgraph.Word{1}, Credit: piece(2)},
	} {
		r.w.routeStealResp(m)
	}
	if got := r.mailbox(0); len(got) != 0 || r.st.active.Load() != 0 || !slices.Equal(r.st.held, piece(1)) || len(r.reports(t)) != 0 {
		t.Fatalf("stale responses delivered %+v, active=%d held %x", got, r.st.active.Load(), r.st.held)
	}
	// Whoever still answers into a stopped attempt's mailboxes — they are its
	// own, a later attempt gets new ones — is not held up by a full one.
	r.st.stop()
	for i := 0; i < 2*mailboxCap; i++ {
		r.st.deliver(0, grant{})
	}
}

// TestStaleKeyIsIgnored sends each message a worker receives for a step
// attempt through its router, keyed to an attempt that differs from the
// running one in the Job, the Step or the Attempt alone, and expects the
// answer the protocol gives a stale message: a step end is ignored, a ping
// is answered as not running it, a steal request with an empty response, a steal
// response reaches no core, and a cancel is answered by a done message that
// ships nothing and carries no counters, and stops nothing. The running
// attempt's own key gets another answer each time, so every check tells the
// two apart.
func TestStaleKeyIsIgnored(t *testing.T) {
	running := attemptKey{1, 2, 3}
	stale := map[string]attemptKey{"job": {0, 2, 3}, "step": {1, 1, 3}, "attempt": {1, 2, 2}}
	// The router answers this ping after the message under test, so what it
	// sent before the answer is all the message made it send.
	barrier := attemptKey{9, 9, 9}
	decodeOne := func(envs []rpc.Envelope, kind uint8, m interface{ get(r *wire.Reader) }) bool {
		return len(envs) == 1 && envs[0].Kind == kind && decode(envs[0].Body, m) == nil
	}
	type staleCase struct {
		name string
		kind uint8
		msg  func(k attemptKey) message
		// ignored says how the worker's handling of a message keyed k
		// differs from the stale answer, "" when it does not; master and
		// peer are what the master and worker 1 were sent.
		ignored func(r *stealRig, k attemptKey, master, peer []rpc.Envelope) string
	}
	kinds := []staleCase{
		{"step end", kStepEnd, func(k attemptKey) message { return k },
			func(r *stealRig, _ attemptKey, master, _ []rpc.Envelope) string {
				if r.st.stopping() || len(master) > 0 {
					return fmt.Sprintf("the step stopped: %v, the master was sent %d messages", r.st.stopping(), len(master))
				}
				return ""
			}},
		{"status ping", kStatusPing, func(k attemptKey) message { return k },
			func(_ *stealRig, k attemptKey, master, _ []rpc.Envelope) string {
				var m statusReportMsg
				if !decodeOne(master, kStatusReport, &m) || m.attemptKey != k || !m.Reply || m.Running {
					return fmt.Sprintf("the master was sent %+v", m)
				}
				return ""
			}},
		{"steal request", kStealReq, func(k attemptKey) message { return stealReqMsg{attemptKey: k, Worker: 1, Core: 1} },
			func(r *stealRig, k attemptKey, _, peer []rpc.Envelope) string {
				var m stealRespMsg
				if !decodeOne(peer, kStealResp, &m) || m.attemptKey != k || m.Core != 1 || len(m.Prefix) > 0 || len(r.st.reqs) > 0 {
					return fmt.Sprintf("the thief was sent %+v, %d requests queued", m, len(r.st.reqs))
				}
				return ""
			}},
		{"steal response", kStealResp, func(k attemptKey) message {
			return stealRespMsg{attemptKey: k, Core: 0, Prefix: []subgraph.Word{7}, Credit: piece(2)}
		}, func(r *stealRig, _ attemptKey, master, _ []rpc.Envelope) string {
			if got := r.mailbox(0); len(got) > 0 || !slices.Equal(r.st.held, piece(1)) || r.st.active.Load() != 1 || len(master) > 0 {
				return fmt.Sprintf("core 0 got %+v, held %x active=%d", got, r.st.held, r.st.active.Load())
			}
			return ""
		}},
		{"cancel", kCancel, func(k attemptKey) message { return k },
			func(r *stealRig, k attemptKey, master, _ []rpc.Envelope) string {
				var m aggDoneMsg
				if !decodeOne(master, kAggDone, &m) || m.attemptKey != k || m.Worker != 0 || m.Sent != 0 || len(m.Errs) != 0 ||
					!reflect.DeepEqual(m.Counters, metrics.Snapshot{}) || r.st.stopping() {
					return fmt.Sprintf("the master was sent %+v, the step stopped: %v", m, r.st.stopping())
				}
				return ""
			}},
	}
	// handle sends a message keyed k through a fresh rig's router and returns
	// how its answer differs from the stale one.
	handle := func(t *testing.T, kc staleCase, k attemptKey) string {
		r := newStealRig(t, 1, 1)
		r.w.start()
		t.Cleanup(func() { r.w.tr.Close(); r.w.stop() })
		for _, env := range []rpc.Envelope{{Kind: kc.kind, Body: encode(kc.msg(k))}, {Kind: kStatusPing, Body: encode(barrier)}} {
			if err := r.net[rpc.Master].Send(0, env); err != nil {
				t.Fatal(err)
			}
		}
		var master []rpc.Envelope
		for {
			var env rpc.Envelope
			select {
			case env = <-r.master:
			case <-time.After(10 * time.Second):
				t.Fatal("the barrier ping was not answered")
			}
			var m statusReportMsg
			if env.Kind == kStatusReport && decode(env.Body, &m) == nil && m.attemptKey == barrier {
				break
			}
			master = append(master, env)
		}
		var peer []rpc.Envelope
		for len(r.peer) > 0 {
			peer = append(peer, <-r.peer)
		}
		return kc.ignored(r, k, master, peer)
	}
	for _, kc := range kinds {
		t.Run(kc.name, func(t *testing.T) {
			for field, k := range stale {
				if diff := handle(t, kc, k); diff != "" {
					t.Errorf("a key stale in its %s: %s", field, diff)
				}
			}
			if handle(t, kc, running) == "" {
				t.Error("the running attempt's own key got the stale answer too")
			}
		})
	}
}

// hubGraph is a star whose first spokes also form a clique, plus random
// chords: nearly all work hangs under the hub's root word.
func hubGraph(spokes, clique int, chords int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder("hub")
	hub := b.AddVertex()
	for i := 0; i < spokes; i++ {
		b.MustAddEdge(hub, b.AddVertex())
	}
	seen := map[[2]int]bool{}
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			b.MustAddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	for u := 1; u <= clique; u++ {
		for v := u + 1; v <= clique; v++ {
			add(u, v)
		}
	}
	for i := 0; i < chords; i++ {
		add(1+rng.Intn(spokes), 1+rng.Intn(spokes))
	}
	return b.Build()
}

// TestStealGrantStress runs hub-skewed graphs over every deployment shape
// and stealing mode: counts must equal the single-threaded reference, every
// worker must answer each steal request sent to it exactly once, nothing
// moves between workers with external stealing off, and no step ends with
// work left on a stack — a step end has nothing to drain. The tcp rows run on a
// master with two ServeWorkers, whose steal traffic crosses real sockets.
// `make check-race` runs it under the race detector, which is where a stack
// touched by two goroutines would show.
func TestStealGrantStress(t *testing.T) {
	const seeds = 50
	type ref struct {
		g    *graph.Graph
		want int64
	}
	refs := make([]ref, seeds)
	for i := range refs {
		g := hubGraph(24, 5, 12, int64(i))
		refs[i] = ref{g, refCount(g, subgraph.VertexInduced, nil, 3)}
	}
	shapes := []struct {
		workers, cores int
		tcp            bool
	}{{1, 4, false}, {2, 2, false}, {2, 2, true}}
	for _, shape := range shapes {
		for _, ws := range []WorkStealing{WSNone, WSInternal, WSExternal, WSBoth} {
			t.Run(fmt.Sprintf("%dx%d-tcp%v-%v", shape.workers, shape.cores, shape.tcp, ws), func(t *testing.T) {
				sent := &kindCounter{answered: make(chan struct{}, 1)}
				cfg := Config{Workers: shape.workers, CoresPerWorker: shape.cores, WS: ws}
				var rt *Runtime
				if shape.tcp {
					rt = listenRuntime(t, cfg, sent)
				} else {
					cfg.FaultInjector = sent
					var err error
					if rt, err = New(cfg); err != nil {
						t.Fatal(err)
					}
					defer rt.Close()
				}
				var got atomic.Int64
				job := func(g *graph.Graph) Job { return countJob(g, subgraph.VertexInduced, nil, 3, &got) }
				for seed, r := range refs {
					got.Store(0)
					var res *Result
					var err error
					if shape.tcp {
						res, err = rt.RunSpec(context.Background(), testSpec(t, r.g, job), nil)
					} else {
						res, err = rt.Run(context.Background(), job(r.g))
					}
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if got.Load() != r.want || res.TotalSubgraphs() != r.want {
						t.Fatalf("seed %d: counted %d (reported %d), want %d", seed, got.Load(), res.TotalSubgraphs(), r.want)
					}
					if reqs := sent.n[kStealReq].Load(); !ws.external() && reqs != 0 {
						t.Fatalf("seed %d: %d steal requests sent with external stealing off", seed, reqs)
					}
					sent.awaitAnswered(t, fmt.Sprintf("seed %d", seed))
					for _, s := range res.Steps {
						if s.AbandonedExts != 0 {
							t.Fatalf("seed %d: step %d ended with %d extensions abandoned", seed, s.Index, s.AbandonedExts)
						}
					}
					s := res.Steps[len(res.Steps)-1]
					if !ws.internal() && s.StealsInternal != 0 || !ws.external() && s.StealsExternal != 0 {
						t.Fatalf("seed %d: %d internal and %d external steals under %v", seed, s.StealsInternal, s.StealsExternal, ws)
					}
				}
			})
		}
	}
}

// TestIdleCoreWakesWithoutTimer: with the one timer an idle core may arm
// set to an hour, runs still finish — a core out of work is woken by a
// grant, an empty answer or the end of the step, never by a clock. The 1×4
// run needs steals to spread the hub's subtree; the 2×2 run ends with cores
// parked on a back-off that cannot fire.
func TestIdleCoreWakesWithoutTimer(t *testing.T) {
	g := hubGraph(200, 6, 40, 1)
	want := refCount(g, subgraph.VertexInduced, nil, 3)
	for _, cfg := range []Config{
		{Workers: 1, CoresPerWorker: 4, WS: WSInternal, idleSleep: time.Hour},
		{Workers: 2, CoresPerWorker: 2, WS: WSBoth, idleSleep: time.Hour},
	} {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		var got atomic.Int64
		_, err = rt.Run(ctx, countJob(g, subgraph.VertexInduced, nil, 3, &got))
		cancel()
		rt.Close()
		if err != nil || got.Load() != want {
			t.Fatalf("%dx%d: counted %d, want %d (err %v)", cfg.Workers, cfg.CoresPerWorker, got.Load(), want, err)
		}
	}
}

// TestDFSLoopAllocatesNothing: once a first step has warmed the cores'
// stacks, a step's allocations are a per-step constant — contexts, mailboxes,
// embeddings, the workers' few status reports and the master's one
// confirmation wave — however many subgraphs it enumerates: nothing in
// core.run allocates per subgraph, per level or per extension.
func TestDFSLoopAllocatesNothing(t *testing.T) {
	g := workload.Community("community", 8, 50, 9, 1.2, 1, 1)
	house, err := pattern.NewPlan(pattern.House())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Workers: 1, CoresPerWorker: 2, WS: WSInternal})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const perStep = 1000
	for _, tc := range []struct {
		name string
		job  func(*atomic.Int64) Job
	}{
		{"plan-induced house", func(n *atomic.Int64) Job { return countJob(g, subgraph.PatternInduced, house, 5, n) }},
		{"edge-induced depth 3", func(n *atomic.Int64) Job { return countJob(g, subgraph.EdgeInduced, nil, 3, n) }},
	} {
		var n atomic.Int64
		if _, err := rt.Run(context.Background(), tc.job(&n)); err != nil { // warm-up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := rt.Run(context.Background(), tc.job(&n))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mallocs, subgraphs := after.Mallocs-before.Mallocs, res.TotalSubgraphs()
		t.Logf("%s: %d subgraphs, EC %d, %d mallocs", tc.name, subgraphs, res.TotalEC(), mallocs)
		if subgraphs < 20*perStep {
			t.Fatalf("%s: only %d subgraphs: too small a step to tell a per-subgraph allocation from the per-step ones", tc.name, subgraphs)
		}
		if mallocs > perStep {
			t.Errorf("%s: %d mallocs in a step of %d subgraphs, want at most the per-step %d", tc.name, mallocs, subgraphs, perStep)
		}
	}
}

// stateProbe is a custom extender that samples the pinned state of the core
// it runs on — from that core's own goroutine, the only one allowed to look
// at its stack — at every extension call, and tracks the largest sum over
// all cores' latest samples.
type stateProbe struct {
	rt      *Runtime
	seq     int // 0 on the prototype, i+1 on the clone of global core i
	samples []atomic.Int64
	maxSum  *atomic.Int64
}

func (p *stateProbe) Clone() subgraph.CustomExtender {
	p.seq++
	return &stateProbe{rt: p.rt, seq: p.seq, samples: p.samples, maxSum: p.maxSum}
}
func (p *stateProbe) Reset(*graph.Graph)                        {}
func (p *stateProbe) Popped(*subgraph.Embedding)                {}
func (p *stateProbe) Pushed(*subgraph.Embedding, subgraph.Word) {}
func (p *stateProbe) Extensions(e *subgraph.Embedding, dst []subgraph.Word) ([]subgraph.Word, int) {
	cpw := p.rt.cfg.CoresPerWorker
	c := p.rt.workers[(p.seq-1)/cpw].cores[(p.seq-1)%cpw]
	p.samples[p.seq-1].Store(c.stack.StateBytes())
	var sum int64
	for i := range p.samples {
		sum += p.samples[i].Load()
	}
	for {
		old := p.maxSum.Load()
		if sum <= old || p.maxSum.CompareAndSwap(old, sum) {
			break
		}
	}
	return e.DefaultExtensions(dst)
}

// TestPinnedStateIsBounded is the memory guarantee of from-scratch DFS
// (Section 4.1, Table 2; ROADMAP 4c): what the cores pin at any moment never
// exceeds the step's reported PeakStateBytes — the sum of the cores' own
// peaks — and that figure is bounded by the shape of the search, cores ×
// depth × (maxdeg + depth) words plus the root words, not by the number of
// subgraphs. The graph is a star whose hub sees every vertex (so a level's
// candidates never outnumber maxdeg) with a clique planted in it; stealing
// spreads the hub's subtree over every core.
func TestPinnedStateIsBounded(t *testing.T) {
	const spokes, depth = 300, 3
	g := hubGraph(spokes, 12, 0, 1)
	for _, cfg := range []Config{
		{Workers: 1, CoresPerWorker: 4, WS: WSInternal},
		{Workers: 2, CoresPerWorker: 2, WS: WSBoth},
	} {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cores := cfg.Workers * cfg.CoresPerWorker
		probe := &stateProbe{rt: rt, samples: make([]atomic.Int64, cores), maxSum: new(atomic.Int64)}
		var w step.Workflow
		for i := 0; i < depth; i++ {
			w = append(w, step.ExtendP())
		}
		res, err := rt.Run(context.Background(), Job{Graph: g, Kind: subgraph.VertexInduced, Custom: probe, Workflow: append(w, step.CountP())})
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		s := res.Steps[len(res.Steps)-1]
		if want := refCount(g, subgraph.VertexInduced, nil, depth); s.Subgraphs != want {
			t.Fatalf("%dx%d: %d subgraphs, want %d", cfg.Workers, cfg.CoresPerWorker, s.Subgraphs, want)
		}
		sampled, bound := probe.maxSum.Load(), int64(4*(cores*depth*(spokes+depth)+g.NumVertices()))
		t.Logf("%dx%d: sampled peak %d B, reported %d B, bound %d B, %d subgraphs", cfg.Workers, cfg.CoresPerWorker, sampled, s.PeakStateBytes, bound, s.Subgraphs)
		if sampled == 0 || sampled > s.PeakStateBytes {
			t.Errorf("%dx%d: cores pinned %d B at once, reported peak is %d B", cfg.Workers, cfg.CoresPerWorker, sampled, s.PeakStateBytes)
		}
		if s.PeakStateBytes > bound {
			t.Errorf("%dx%d: PeakStateBytes=%d exceeds cores×depth×(maxdeg+depth)×4 + root words = %d", cfg.Workers, cfg.CoresPerWorker, s.PeakStateBytes, bound)
		}
	}
}
