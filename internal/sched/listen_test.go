package sched

import (
	"context"
	"fmt"
	"net/netip"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/rpc"
	"fractal/internal/step"
	"fractal/internal/subgraph"
	"fractal/internal/wire"
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

// TestRegistrationSendsOnlyTheWelcome: registration is two messages, the
// worker's register and the master's welcome, however many workers are
// registered already — nobody else hears of the newcomer before a step
// start names it.
func TestRegistrationSendsOnlyTheWelcome(t *testing.T) {
	rt, err := New(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	var workers []*worker
	t.Cleanup(func() {
		rt.Close()
		for _, w := range workers {
			w.tr.Close()
			w.stop()
		}
	})
	for n := 1; n <= 3; n++ {
		before := rt.master.Stats().MsgsSent
		w, err := joinMaster(context.Background(), rt.ListenAddr(), ServeWorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		if err := rt.AwaitWorkers(context.Background(), n); err != nil {
			t.Fatal(err)
		}
		if sent := rt.master.Stats().MsgsSent - before; sent != 1 {
			t.Errorf("admitting a worker beside %d others sent %d messages, want the welcome alone", n-1, sent)
		}
	}
}

// recvKind reads tr's mailbox until a message of the given kind arrives,
// which it decodes into m, and reports whether one did within the bound.
func recvKind(tr rpc.Transport, kind uint8, m interface{ get(r *wire.Reader) }, within time.Duration) bool {
	timeout := time.After(within)
	for {
		select {
		case env := <-tr.Recv():
			if env.Kind == kind {
				return decode(env.Body, m) == nil
			}
		case <-timeout:
			return false
		}
	}
}

// register registers node, still Unregistered, with the master at
// masterAddr under the address addr, as joinMaster does, and adopts the ID
// the welcome assigns; the test fails without a welcome within 10 s.
func register(t *testing.T, node *rpc.TCPNode, masterAddr, addr string) welcomeMsg {
	t.Helper()
	node.AddPeer(rpc.Master, masterAddr)
	if err := node.Send(rpc.Master, rpc.Envelope{Kind: kRegister, Body: encode(registerMsg{Addr: addr})}); err != nil {
		t.Fatal(err)
	}
	var wel welcomeMsg
	if !recvKind(node, kWelcome, &wel, 10*time.Second) {
		t.Fatalf("no welcome within 10s for a worker registered at %s", addr)
	}
	node.SetSelf(rpc.NodeID(wel.Worker))
	return wel
}

// TestWildcardWorkerRegistersReachableAddr: a ServeWorker listening on ":0"
// registers with a 127.0.0.1 master at the IP it reaches the master from,
// not at its wildcard listener address, and a second worker that registers
// after it reaches it there: the first step start that names them both
// carries that address, and a steal request sent to it is answered.
func TestWildcardWorkerRegistersReachableAddr(t *testing.T) {
	rt, err := New(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		ServeWorker(ctx, rt.ListenAddr(), ServeWorkerOptions{ListenAddr: ":0"})
	}()
	t.Cleanup(func() {
		cancel()
		<-served
	})
	if err := rt.AwaitWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// The second worker registers by hand, as joinMaster does.
	peer, err := rpc.NewTCPNode(rpc.Unregistered, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	wel := register(t, peer, rt.ListenAddr(), peer.Addr())
	if err := rt.AwaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	// A job's first step start names both workers with their addresses.
	// This worker never runs it: the job is cancelled once the address is
	// checked.
	spec := testSpec(t, randomGraph(12, 0.3, 1, 3), func(g *graph.Graph) Job { return aggCountJob(g, 2) })
	runCtx, stopRun := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		rt.RunSpec(runCtx, spec, nil)
	}()
	t.Cleanup(func() {
		stopRun()
		<-ran
	})
	var start stepStartMsg
	if !recvKind(peer, kStepStart, &start, 10*time.Second) {
		t.Fatal("no step start within 10s")
	}
	if len(start.Workers) != 2 || start.Workers[1] != (peerAddr{wel.Worker, peer.Addr()}) {
		t.Fatalf("the step start names %+v, want the first worker and then this one at %s", start.Workers, peer.Addr())
	}
	first := start.Workers[0]
	ap, err := netip.ParseAddrPort(first.Addr)
	if err != nil || ap.Addr() != netip.AddrFrom4([4]byte{127, 0, 0, 1}) {
		t.Fatalf("the worker listening on :0 registered %q (%v), want 127.0.0.1 and its port", first.Addr, err)
	}
	peer.AddPeer(rpc.NodeID(first.Worker), first.Addr)

	// The first worker answers a steal request of no running attempt with
	// an empty grant, over the connection the request came on, whether or
	// not its own step start has named this worker yet.
	req := encode(stealReqMsg{Worker: wel.Worker})
	if err := peer.Send(rpc.NodeID(first.Worker), rpc.Envelope{Kind: kStealReq, Body: req}); err != nil {
		t.Fatalf("sending to %s: %v", first.Addr, err)
	}
	if !recvKind(peer, kStealResp, &stealRespMsg{}, 10*time.Second) {
		t.Fatalf("no steal response from the worker at %s within 10s", first.Addr)
	}
}

// TestWorkerHoldsOneJob: a worker process holds the newest job a step start
// named. The first step start of a newer job installs it in place of the
// current one; a later step of the current job installs nothing; a step
// start of an older job is ignored, unanswered. A job that fails to install
// is answered at once, and on every later step start, with the reply of a
// worker not running the attempt — and is not installed again.
func TestWorkerHoldsOneJob(t *testing.T) {
	var installs atomic.Int64
	spec := testSpec(t, randomGraph(20, 0.2, 2, 7), func(g *graph.Graph) Job {
		installs.Add(1)
		freq := &step.AggSpec{Name: "freq", Proto: agg.New[string, int64](agg.SumInt64),
			Emit: func(e *subgraph.Embedding, local agg.Store) {
				local.(*agg.Aggregation[string, int64]).Add(e.Pattern().Canonical().Code, 1)
			}}
		return Job{Graph: g, Kind: subgraph.EdgeInduced, Workflow: step.Workflow{
			step.ExtendP(), step.AggregateP(freq),
			step.AggFilterP("freq", func(*subgraph.Embedding, agg.Store) bool { return true }),
			step.ExtendP(), step.VisitP(func(*subgraph.Embedding) {}),
		}}
	})
	broken := testSpec(t, randomGraph(5, 0.5, 1, 7), func(*graph.Graph) Job {
		installs.Add(1)
		return Job{} // no graph: validate refuses it
	})
	nw := rpc.NewLoopbackNetwork([]rpc.NodeID{rpc.Master, 0})
	defer nw[rpc.Master].Close()
	defer nw[0].Close()
	h := &remoteHost{cfg: Config{CoresPerWorker: 1}.withDefaults()}
	w := newWorker(0, h.cfg, h.runFor, nw[0])
	start := func(job, step int, spec JobSpec) stepStartMsg {
		return stepStartMsg{attemptKey: attemptKey{Job: job, Step: step}, Workers: []peerAddr{{Worker: 0}}, Spec: specToWire(spec, nil)}
	}
	for _, c := range []struct {
		job, step int
		installs  int64
		runs      bool
		holds     int
	}{
		{2, 0, 1, true, 2},  // a newer job installs
		{1, 0, 1, false, 2}, // an older one is ignored
		{2, 1, 1, true, 2},  // the current job's next step installs nothing
		{3, 1, 2, true, 3},  // a newer job replaces it
		{2, 0, 2, false, 3}, // and the old job's steps are stale
	} {
		run, err := h.runFor(start(c.job, c.step, spec))
		if err != nil || (run != nil) != c.runs || installs.Load() != c.installs {
			t.Fatalf("step start of job %d step %d: run %v (%v) after %d installs, want a run: %v after %d",
				c.job, c.step, run != nil, err, installs.Load(), c.runs, c.installs)
		}
		if h.job == nil || h.newest != c.holds {
			t.Fatalf("after job %d step %d the worker holds %+v (newest %d)", c.job, c.step, h.job, h.newest)
		}
	}

	// Through the router's handler, whose loopback sends are in the
	// master's mailbox when it returns: the stale start goes unanswered, and
	// the job that cannot install is refused at once, twice, built once.
	reply := func() (statusReportMsg, bool) {
		select {
		case env := <-nw[rpc.Master].Recv():
			var m statusReportMsg
			if env.Kind != kStatusReport || decode(env.Body, &m) != nil {
				t.Fatalf("worker sent kind %d, want a status report", env.Kind)
			}
			return m, true
		default:
			return statusReportMsg{}, false
		}
	}
	w.startStep(start(1, 0, spec))
	if m, ok := reply(); ok {
		t.Fatalf("a step start of an older job was answered: %+v", m)
	}
	for step := range 2 {
		w.startStep(start(4, step, broken))
		m, ok := reply()
		if !ok || !m.Reply || m.Running || m.attemptKey != (attemptKey{Job: 4, Step: step}) || m.Worker != 0 || m.Err == "" {
			t.Fatalf("step %d of a job that cannot install: answered %v with %+v, want a Reply not running it, and why", step, ok, m)
		}
	}
	if h.job != nil || h.newest != 4 || installs.Load() != 3 {
		t.Errorf("after a failed install the worker holds %+v (newest %d, %d installs)", h.job, h.newest, installs.Load())
	}
}

// TestWelcomeNeedsNoDial: a worker that registered an address nobody
// listens on, where a dial fails with a *DialError, is welcomed over the
// connection its registration came on, and its steps reach it the same
// way: it runs a 4-clique count exactly.
func TestWelcomeNeedsNoDial(t *testing.T) {
	rt, err := New(Config{ListenAddr: "127.0.0.1:0", CoresPerWorker: 2, WS: WSBoth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	gone, err := rpc.NewTCPNode(rpc.Unregistered, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone.Close()
	node, err := rpc.NewTCPNode(rpc.Unregistered, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wel := register(t, node, rt.ListenAddr(), gone.Addr())
	cfg := Config{CoresPerWorker: wel.CoresPerWorker, WS: WorkStealing(wel.WS), WorkerTimeout: time.Duration(wel.WorkerTimeout)}.withDefaults()
	w := newWorker(wel.Worker, cfg, (&remoteHost{cfg: cfg, node: node}).runFor, node)
	w.start()
	t.Cleanup(func() {
		node.Close()
		w.stop()
	})

	plan, err := pattern.NewPlan(pattern.Clique(4))
	if err != nil {
		t.Fatal(err)
	}
	g := randomGraph(30, 0.4, 1, 5)
	want := refCount(g, subgraph.PatternInduced, plan, 4)
	if want == 0 {
		t.Fatal("degenerate test graph")
	}
	var got atomic.Int64
	spec := testSpec(t, g, func(g *graph.Graph) Job { return countJob(g, subgraph.PatternInduced, plan, 4, &got) })
	if _, err := rt.RunSpec(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	if got.Load() != want {
		t.Errorf("counted %d 4-cliques, want %d", got.Load(), want)
	}
}

// TestFailedWelcomeAdmitsNobody: a registrant whose welcome the master
// cannot send is not admitted, so no step start names a worker that never
// learned its ID; the next registrant is admitted as the only worker.
func TestFailedWelcomeAdmitsNobody(t *testing.T) {
	script := rpc.NewScript(rpc.SeverRule(rpc.Master, 0, kWelcome, 0, 0))
	rt, err := New(Config{ListenAddr: "127.0.0.1:0", FaultInjector: script})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx, cancel := context.WithCancel(context.Background())
	unwelcome := make(chan struct{})
	go func() {
		defer close(unwelcome)
		if w, err := joinMaster(ctx, rt.ListenAddr(), ServeWorkerOptions{}); err == nil {
			w.tr.Close()
			w.stop()
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-unwelcome
	})
	for deadline := time.Now().Add(10 * time.Second); script.Stats().Severed == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first registrant's welcome was never sent")
		}
	}
	short, stop := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer stop()
	if err := rt.AwaitWorkers(short, 1); err == nil {
		t.Fatalf("a registrant whose welcome failed was admitted: workers %v", rt.reg.workerIDs(nil))
	}

	w, err := joinMaster(context.Background(), rt.ListenAddr(), ServeWorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.tr.Close()
		w.stop()
	})
	if err := rt.AwaitWorkers(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if ids := rt.reg.workerIDs(nil); !slices.Equal(ids, []int{1}) {
		t.Errorf("workers %v, want the second registrant alone, [1]", ids)
	}
}

// overtake holds the master's first step start to the victim until the
// thief has sent the victim two steal requests. The thief's one core asks
// again only once its first request is answered (its WorkerTimeout is a
// minute), so the victim must answer a thief no step start has named to it
// yet. held records whether the hold ended on its 10 s bound instead.
type overtake struct {
	thief, victim rpc.NodeID
	asked         atomic.Int64
	second        chan struct{}
	hold          sync.Once
	held          atomic.Bool
}

func (o *overtake) Intercept(from, to rpc.NodeID, kind uint8) rpc.Fault {
	switch {
	case from == o.thief && to == o.victim && kind == kStealReq:
		if o.asked.Add(1) == 2 {
			close(o.second)
		}
	case from == rpc.Master && to == o.victim && kind == kStepStart:
		o.hold.Do(func() {
			select {
			case <-o.second:
			case <-time.After(10 * time.Second):
				o.held.Store(true)
			}
		})
	}
	return rpc.Fault{}
}

// TestStealAnswerOvertakesStepStart: a steal request that reaches its
// victim before the step start naming its thief is answered, over the
// connection it came on. The master sends its step starts in rank order,
// so worker 0 starts, runs dry and asks worker 1, whose step start is held
// until worker 0 asks a second time — which its core does only after the
// answer to its first request. The count is exact.
func TestStealAnswerOvertakesStepStart(t *testing.T) {
	o := &overtake{thief: 0, victim: 1, second: make(chan struct{})}
	rt := listenRuntime(t, Config{CoresPerWorker: 1, WS: WSExternal, FaultInjector: o}, o)
	g := randomGraph(30, 0.25, 1, 3)
	want := refCount(g, subgraph.VertexInduced, nil, 3)
	res, err := rt.RunSpec(context.Background(), testSpec(t, g, func(g *graph.Graph) Job { return aggCountJob(g, 3) }), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := aggCount(t, res); got != want {
		t.Errorf("counted %d, want %d", got, want)
	}
	if o.held.Load() || o.asked.Load() < 2 {
		t.Errorf("worker 0 sent %d steal requests before worker 1 started: the answer to its first never reached its core", o.asked.Load())
	}
}
