package sched

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fractal/internal/agg"
	"fractal/internal/metrics"
	"fractal/internal/rpc"
	"fractal/internal/subgraph"
	"fractal/internal/wire"
)

// stepCtx is the per-step execution context shared by a worker's cores.
type stepCtx struct {
	// run is the attempt's shared state: its key, step, participants, graph,
	// kind, plan, custom-extender clones, environment, core count and tracer
	// (nil when tracing is disabled, so every event site is one pointer
	// comparison). Each attempt has its own, and none of these change during
	// it; messages keyed to other attempts are discarded.
	run *jobRun
	// rank is this worker's position in run.parts and base =
	// rank×CoresPerWorker its first global core index. Core indices are
	// attempt-scoped — a retry that excludes a lost worker re-ranks the
	// survivors, and the root domain is re-partitioned over
	// base..base+cores-1 of totalCores.
	rank, base int

	localAggs []map[string]agg.Store // per core, per aggregation name

	// attn is the one word a busy core polls per DFS iteration: attnStop
	// tells it to abandon its subtree, attnSteal that reqs is not empty.
	attn atomic.Uint32
	// active counts the units of work the worker holds: one per core that
	// has not run dry, one per granted prefix on its way to a core's
	// mailbox. It only changes under reqMu, so "active == 0" and "no request
	// is queued" are decided together, and so is what happens to the
	// worker's credit (DESIGN §6), also under reqMu: held is what it holds —
	// its share, less what its grants carried away, plus what the grants it
	// adopted brought — and returned what it has handed back to the master.
	active   atomic.Int64
	held     credit
	returned credit
	// reqs queues the steal requests no busy core has answered yet, oldest
	// first. Every request gets exactly one answer: a grant from a busy core,
	// or an empty one from post (nobody could ever serve it) or from retire
	// (the last busy core ran dry or stopped).
	reqMu sync.Mutex
	reqs  []stealReq
	// mail holds one mailbox per core: the answers to the requests it posted
	// — sibling grants, routed kStealResp — arrive here and nowhere else. The
	// mailboxes live and die with the attempt, so nothing addressed to an
	// earlier step or attempt can reach this one's cores.
	mail []chan grant

	doneCh   chan struct{} // closed by stop, with attnStop set
	doneOnce sync.Once
	wg       sync.WaitGroup
}

const (
	attnStop  uint32 = 1 << iota // the step ended or was cancelled: cores stop
	attnSteal                    // steal requests are queued
)

// stealReq is one queued steal request: from a sibling core (thief is its
// index) or, with thief < 0, from the remote core named in remote. share is
// the credit a remote grant carries, split off when a core takes the
// request; zero means the donor declines.
type stealReq struct {
	thief  int
	remote stealReqMsg
	share  credit
}

// grant answers a steal request in the thief's mailbox. An empty prefix
// means no work; external marks a routed kStealResp.
type grant struct {
	prefix   []subgraph.Word
	external bool
}

// mailboxCap bounds the answers in flight to one core: one to its sibling
// request, one to its remote request, and the late answers to remote requests
// it gave up on (one per WorkerTimeout). A sender finding it full waits for
// the core or the end of the step.
const mailboxCap = 8

// flag sets or clears one bit of attn.
func (st *stepCtx) flag(bit uint32, on bool) {
	for {
		old := st.attn.Load()
		set := old &^ bit
		if on {
			set = old | bit
		}
		if st.attn.CompareAndSwap(old, set) {
			return
		}
	}
}

// stopping reports whether the attempt was stopped: cores leave their DFS
// loop, post refuses requests and donate grants none.
func (st *stepCtx) stopping() bool { return st.attn.Load()&attnStop != 0 }

// stop stops the attempt, however it ends — a step end, a cancel, or the
// master's interrupt (Runtime.broadcastCancel) for in-process workers,
// where compute-bound cores can starve the transport goroutines for tens
// of milliseconds. A busy core sees attnStop at its next DFS iteration and
// a parked one the closed doneCh. At a step end every stack is empty, since
// all of the step's credit came home (DESIGN §6), so a core that still
// holds work abandons it, and stopStep says so.
func (st *stepCtx) stop() {
	st.doneOnce.Do(func() {
		st.flag(attnStop, true)
		close(st.doneCh)
	})
}

// post queues a steal request for the busy cores and reports whether it did.
// It refuses — the caller answers empty — when no busy core is left to serve
// it or the step has stopped handing out work.
func (st *stepCtx) post(r stealReq) bool {
	st.reqMu.Lock()
	defer st.reqMu.Unlock()
	if st.active.Load() == 0 || st.stopping() {
		return false
	}
	st.reqs = append(st.reqs, r)
	st.flag(attnSteal, true)
	return true
}

// takeRequest pops the oldest queued request for a busy core that has work to
// give away. A sibling thief's unit of activity is booked here, before the
// prefix leaves the donor, so active never reads 0 while work is in flight;
// a remote thief's share is half the worker's credit, split off here, unless
// that credit has a piece at the bound.
func (st *stepCtx) takeRequest() (r stealReq, ok bool) {
	st.reqMu.Lock()
	defer st.reqMu.Unlock()
	if len(st.reqs) == 0 {
		return r, false
	}
	r = st.reqs[0]
	st.reqs = st.reqs[:copy(st.reqs, st.reqs[1:])]
	if len(st.reqs) == 0 {
		st.flag(attnSteal, false)
	}
	if r.thief >= 0 {
		st.active.Add(1)
	} else {
		r.share, _ = st.held.halve()
	}
	return r, true
}

// retire gives up one unit of activity (a core ran dry or stopped). Whoever
// gives up the last one takes the requests still queued — nobody is left to
// grant them, so the caller answers each empty — and returns all the credit
// the worker holds: the caller sends the status report made here.
func (st *stepCtx) retire() (left []stealReq, rep *statusReportMsg) {
	st.reqMu.Lock()
	defer st.reqMu.Unlock()
	if st.active.Add(-1) > 0 {
		return nil, nil
	}
	left, st.reqs = st.reqs, nil
	st.flag(attnSteal, false)
	st.returned.add(st.held)
	st.held = nil
	return left, &statusReportMsg{attemptKey: st.run.key, Running: true, Returned: st.returned}
}

// deliver puts an answer in a core's mailbox. It only waits when the mailbox
// is full, and gives up when the step ends: what is dropped then is either
// empty or part of an abandoned attempt.
func (st *stepCtx) deliver(core int, g grant) {
	select {
	case st.mail[core] <- g:
	case <-st.doneCh:
	}
}

// worker is one worker node: it owns cores and a message router serving
// step control, status pings, and external steal requests.
type worker struct {
	id  int
	cfg Config
	// runFor resolves a step start to the job state the worker executes
	// against: the Runtime's published run for in-process workers (shared
	// address space), the job installed from the step starts' spec in a
	// worker process. It returns nil and no error for a stale message — an
	// older job, an abandoned attempt — which the worker ignores, exactly as
	// a worker whose step start was lost; and an error when the worker
	// cannot run the attempt (a job it could not install, a step or
	// environment it cannot read).
	runFor func(m stepStartMsg) (*jobRun, error)
	tr     rpc.Transport
	cores  []*core

	mu  sync.Mutex
	cur *stepCtx // step under execution, nil when idle

	wg sync.WaitGroup
}

func newWorker(id int, cfg Config, runFor func(stepStartMsg) (*jobRun, error), tr rpc.Transport) *worker {
	w := &worker{id: id, cfg: cfg, runFor: runFor, tr: tr}
	for i := 0; i < cfg.CoresPerWorker; i++ {
		w.cores = append(w.cores, newCore(w, i))
	}
	return w
}

// start launches the message router.
func (w *worker) start() {
	w.wg.Add(1)
	go w.route()
}

// stop waits for the router to exit (after the transport closes or a
// shutdown message arrives).
func (w *worker) stop() { w.wg.Wait() }

func (w *worker) route() {
	defer w.wg.Done()
	for env := range w.tr.Recv() {
		switch env.Kind {
		case kStepStart:
			var m stepStartMsg
			if decode(env.Body, &m) == nil {
				w.startStep(m)
			}
		case kStepEnd, kCancel:
			var m attemptKey
			if decode(env.Body, &m) == nil {
				w.stopStep(m, env.Kind == kStepEnd)
			}
		case kStatusPing:
			var m attemptKey
			if decode(env.Body, &m) == nil {
				w.answerPing(m)
			}
		case kStealReq:
			var m stealReqMsg
			if decode(env.Body, &m) == nil {
				w.serveSteal(m)
			}
		case kStealResp:
			var m stealRespMsg
			if decode(env.Body, &m) == nil {
				w.routeStealResp(m)
			}
		case kShutdown:
			// Nothing reads this transport after its router: close it and
			// drop what is still queued, so that no backlog outlives it.
			w.stopCurrent()
			w.tr.Close()
			for range w.tr.Recv() {
			}
			return
		}
	}
	w.stopCurrent()
}

// current returns the step under execution, nil when idle.
func (w *worker) current() *stepCtx {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cur
}

// startStep builds the step context from the provider's run state and
// launches the cores. A worker named in an attempt it cannot run says so at
// once, and why, with the reply a ping gets from a worker not running the
// attempt: the master convicts it of a step-start loss.
func (w *worker) startStep(m stepStartMsg) {
	rank := slices.IndexFunc(m.Workers, func(p peerAddr) bool { return p.Worker == w.id })
	if rank < 0 {
		return // excluded from this attempt
	}
	run, err := w.runFor(m)
	if err != nil {
		w.report(&statusReportMsg{attemptKey: m.attemptKey, Reply: true, Err: err.Error()})
		return
	}
	if run == nil {
		return
	}
	// A failed attempt may still be running here if its cancel message was
	// lost along with the worker it blamed: stop it before installing the
	// new step. Its cores have stopped before this attempt's counters are
	// zeroed below, and its aggregations are discarded with its stepCtx, so
	// nothing it did leaks into this attempt.
	w.stopCurrent()
	st := &stepCtx{
		run:    run,
		rank:   rank,
		base:   rank * w.cfg.CoresPerWorker,
		held:   m.Share,
		doneCh: make(chan struct{}),
		mail:   make([]chan grant, len(w.cores)),
	}
	for i := range st.mail {
		st.mail[i] = make(chan grant, mailboxCap)
	}

	specs := run.step.AggSpecs()
	st.localAggs = make([]map[string]agg.Store, len(w.cores))
	for i := range w.cores {
		st.localAggs[i] = map[string]agg.Store{}
		for _, sp := range specs {
			st.localAggs[i][sp.Name] = sp.Proto.NewEmpty()
		}
	}

	w.mu.Lock()
	w.cur = st
	w.mu.Unlock()

	// Mark every core active before its goroutine is even scheduled, so the
	// worker holds its share until its last core has run dry, however
	// slowly the goroutines start.
	st.active.Add(int64(len(w.cores)))
	st.wg.Add(len(w.cores))
	for _, c := range w.cores {
		c.ctr, c.asked, c.askedRemote = metrics.Snapshot{}, false, false
		go c.run(st)
	}
	// The master flips the run's abort flag before it looks for steps to
	// interrupt (broadcastCancel): whichever of the two comes second sees the
	// other, so a step installed during a cancellation still stops at once.
	if run.cancelled.Load() {
		st.stop()
	}
}

// counters sums the cores' counter blocks of the attempt that just stopped
// (st.wg.Wait() has returned, so every block is final) into the worker's
// block, CoreWork in core order. It is the one place a step attempt's
// counters are assembled, whichever message then carries them and whichever
// process the worker lives in.
func (w *worker) counters() metrics.Snapshot {
	var sum metrics.Snapshot
	for _, c := range w.cores {
		sum.Add(c.ctr)
	}
	return sum
}

// stopStep ends the worker's part of the attempt key names, at a step end
// (ship) or a cancel: it stops the cores, waits for them, and sends the
// master the done message with their counters. A step end first ships the
// aggregation partials; a cancel discards them, Sent 0. A cancel is always
// answered — with no counters when the worker is not running the attempt,
// so the master's drain wait is not held up — but a step end for another
// attempt is not: answering it would commit a result missing this worker's
// share. The router handles one message at a time, so a later kStepStart
// waits until the cores have stopped and no step leaks cores into the next.
func (w *worker) stopStep(key attemptKey, ship bool) {
	done := aggDoneMsg{attemptKey: key, Worker: w.id}
	if st := w.current(); stepMatches(st, key) {
		w.stopCurrent()
		done.Counters = w.counters()
		if ship {
			w.ship(st, &done)
		}
	} else if ship {
		return
	}
	w.tr.Send(rpc.Master, rpc.Envelope{Kind: kAggDone, Body: encode(done)})
}

// ship folds the stopped attempt's per-core partials into frames and sends
// each to the master as it closes, booking the frames, the errors and the
// fold's counters in done. A partial that cannot be folded, encoded or
// shipped, and work a core still held at the step end, is an error there —
// never silently skipped, which would commit a wrong or missing aggregation.
// The fold is the step tail's one primitive (agg.Store.FoldToFrames, DESIGN
// §9): the cores' stores are walked together in key order, a key's values
// reduced and encoded and the cores' entries dropped as they go, so the
// worker never holds a merged store or a payload-sized buffer.
func (w *worker) ship(st *stepCtx, done *aggDoneMsg) {
	if n := done.Counters.AbandonedExts; n > 0 {
		done.Errs = append(done.Errs, fmt.Sprintf("the step ended with %d unexplored extensions on the cores' stacks", n))
	}
	mergeStart := time.Now()
	for _, sp := range st.run.step.AggSpecs() {
		partials := make([]agg.Store, len(w.cores))
		for i := range w.cores {
			partials[i] = st.localAggs[i][sp.Name]
		}
		msg := aggDataMsg{attemptKey: done.attemptKey, Worker: w.id, Name: sp.Name}
		err := sp.Proto.FoldToFrames(partials, nil, func(frame []byte) error {
			// The frame buffer is the fold's; the message body, made at its
			// final size, is the one copy a frame gets on its way to the
			// socket or the mailbox.
			msg.Data = frame
			body := wire.Writer{B: make([]byte, 0, len(frame)+len(sp.Name)+64)}
			msg.put(&body)
			if err := w.tr.Send(rpc.Master, rpc.Envelope{Kind: kAggData, Body: body.B}); err != nil {
				return fmt.Errorf("shipping a frame: %w", err)
			}
			done.Counters.AggShippedBytes += int64(len(frame))
			done.Sent++
			return nil
		})
		if err != nil {
			done.Errs = append(done.Errs, fmt.Sprintf("folding core partials of %q: %v", sp.Name, err))
		}
	}
	done.Counters.AggMergeTimeNs = int64(time.Since(mergeStart))
}

// stopCurrent stops the step under execution, if any, waits for its cores
// and only then forgets it. Only the router calls it, as it does everything
// that sets w.cur.
func (w *worker) stopCurrent() {
	if st := w.current(); st != nil {
		st.stop()
		st.wg.Wait()
		w.mu.Lock()
		w.cur = nil
		w.mu.Unlock()
	}
}

// answerPing answers the master's ping with the worker's current status,
// or as not Running when it is not running the pinged attempt — answering
// pings while never having received the step start is exactly what the
// master's step-start check exists to catch.
func (w *worker) answerPing(key attemptKey) {
	rep := &statusReportMsg{attemptKey: key, Reply: true}
	if st := w.current(); stepMatches(st, key) {
		st.reqMu.Lock()
		rep.Running, rep.Active, rep.Returned = true, st.active.Load(), st.returned
		st.reqMu.Unlock()
	}
	w.report(rep)
}

// report sends a status report to the master. A report that does not make
// it is a loss like any other: the master's silence timeout catches it.
func (w *worker) report(rep *statusReportMsg) {
	rep.Worker = w.id
	w.tr.Send(rpc.Master, rpc.Envelope{Kind: kStatusReport, Body: encode(rep)})
}

// interrupt stops the cores of the named step attempt, if this worker is
// running it, without waiting for them: the master's shortcut past a starved
// transport (Runtime.broadcastCancel). The cancel message that follows waits
// for them and carries the answer.
func (w *worker) interrupt(key attemptKey) {
	if st := w.current(); stepMatches(st, key) {
		st.stop()
	}
}

// serveSteal queues a remote thief's request for the worker's busy cores:
// stacks are private, so the core that owns the work grants it and sends the
// kStealResp itself (core.donate), within one DFS iteration of seeing the
// request. When no core is busy the request is answered empty here.
func (w *worker) serveSteal(m stealReqMsg) {
	st := w.current()
	r := stealReq{thief: -1, remote: m}
	// Only requests of the attempt under execution are queued; a stale
	// request from an abandoned attempt still gets its (empty) response.
	if !stepMatches(st, m.attemptKey) || !st.post(r) {
		w.answer(st, r, nil)
	}
}

// answer gives a request taken off st's queue (or refused by it) its one
// answer: into the sibling thief's mailbox, or to the remote thief as a
// kStealResp, whose prefix carries the request's share. If the send fails
// the work is lost and so is its credit, which the master then never sees
// come home.
func (w *worker) answer(st *stepCtx, r stealReq, prefix []subgraph.Word) {
	if m := r.remote; r.thief < 0 {
		resp := stealRespMsg{attemptKey: m.attemptKey, Core: m.Core, Prefix: prefix, Credit: r.share}
		w.tr.Send(rpc.NodeID(m.Worker), rpc.Envelope{Kind: kStealResp, Body: encode(resp)})
		return
	}
	st.deliver(r.thief, grant{prefix: prefix})
}

// stepMatches reports whether st is the step attempt key names.
func stepMatches(st *stepCtx, key attemptKey) bool { return st != nil && st.run.key == key }

// routeStealResp hands a steal response to the requesting core. A grant is
// adopted here, at the router — its unit of activity and its credit booked
// together, so the worker never returns its credit while holding the
// prefix. Only responses of the attempt under execution are routed into it.
func (w *worker) routeStealResp(m stealRespMsg) {
	st := w.current()
	if !stepMatches(st, m.attemptKey) || m.Core < 0 || m.Core >= len(w.cores) {
		return
	}
	if len(m.Prefix) > 0 {
		st.reqMu.Lock()
		st.active.Add(1)
		st.held.add(m.Credit)
		st.reqMu.Unlock()
	}
	st.deliver(m.Core, grant{prefix: m.Prefix, external: true})
}
