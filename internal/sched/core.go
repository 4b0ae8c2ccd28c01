package sched

import (
	"time"

	"fractal/internal/enumerator"
	"fractal/internal/metrics"
	"fractal/internal/pattern"
	"fractal/internal/rpc"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// core is one execution core of a worker: it owns an Embedding (the mutable
// subgraph of Algorithm 1) and a stack of subgraph enumerators, and runs the
// depth-first step processing loop. The stack is private to the loop: other
// cores, and remote workers through the router, get work from it by asking
// (stepCtx.post), and the loop grants what it can spare (donate).
type core struct {
	w          *worker
	local      int // index within the worker
	stack      enumerator.Stack
	extScratch []subgraph.Word
	backoff    *time.Timer // external steal back-off; made on first use

	// ctr is the counter block of the step attempt the core is running:
	// plain memory this core alone writes. startStep zeroes it before the
	// core's goroutine starts and the worker reads it after st.wg.Wait(), so
	// counting an extension test or a subgraph touches no shared cache line.
	ctr metrics.Snapshot
	// asked and askedRemote say that a sibling request of this core is
	// queued, or a remote one on its way, with no answer yet. They outlive an
	// idle spell: a request the core stopped waiting for is still answered.
	asked, askedRemote bool
}

func newCore(w *worker, local int) *core {
	return &core{w: w, local: local}
}

// gidx is the core's global index for the attempt: cores are numbered by the
// worker's rank among the attempt's participants, not its worker ID, so that
// a retry over fewer workers still covers the whole root domain with
// contiguous indices.
func (c *core) gidx(st *stepCtx) int { return st.base + c.local }

// run executes one step to global quiescence. It is the DFS-PROCESSING loop
// of Algorithm 1 driven by the enumerator stack, extended with the steal
// logic of Section 4.2.
func (c *core) run(st *stepCtx) {
	defer st.wg.Done()
	start := time.Now()

	run := st.run
	var emb *subgraph.Embedding
	if run.customs != nil {
		emb = subgraph.NewCustom(run.graph, run.customs[c.gidx(st)])
	} else {
		emb = subgraph.New(run.graph, run.kind, run.plan)
	}
	c.stack.Clear()
	// The core already holds its unit of st.active: startStep booked one for
	// every core before launching the goroutines.
	c.stack.PushRoot(c.gidx(st), run.totalCores, emb.InitialDomain())

	for {
		// One word is polled per DFS iteration (one extension consumed per
		// iteration), which bounds both the reaction to a stop and the wait
		// of a thief to a single embedding's processing time.
		if a := st.attn.Load(); a != 0 {
			if a&attnStop != 0 {
				c.release(st)
				break
			}
			c.donate(st)
		}
		e := c.stack.Top()
		if e == nil {
			prefix, ok := c.park(st)
			if !ok {
				break
			}
			c.install(st, emb, prefix)
			continue
		}
		depth := e.Depth()
		w, ok := e.Take()
		if !ok {
			c.stack.Pop()
			continue
		}
		if depth == 0 && !emb.ValidInitial(w) {
			continue
		}
		emb.TruncateTo(depth)
		c.process(st, emb, depth, w)
	}

	// Idle and steal time were booked by park as they passed; holding work is
	// the rest of the loop's lifetime.
	c.ctr.BusyTimeNs = int64(time.Since(start)) - c.ctr.IdleTimeNs - c.ctr.StealTimeNs
	c.ctr.ExtensionTests += emb.Charged()
	c.ctr.CoreWork = []int64{c.ctr.Work()}
	cs := emb.ClassStats()
	c.ctr.QuickPatterns, c.ctr.CanonCalls = cs.QuickPatterns, cs.CanonCalls
	c.ctr.ClassesPruned, c.ctr.SubgraphsPruned = cs.ClassesPruned, cs.SubgraphsPruned
	c.ctr.PeakStateBytes = c.stack.PeakStateBytes()
	// A core stopped mid-work drops what its stack still holds, so memory
	// is released promptly, and records how much work it abandoned.
	if c.ctr.AbandonedExts = c.stack.Abandon(); c.ctr.AbandonedExts > 0 && st.run.tracer != nil {
		st.run.tracer.Emit(metrics.TraceEvent{
			Kind: metrics.TraceDrain, Step: st.run.key.Step,
			Worker: c.w.id, Core: c.local, Value: c.ctr.AbandonedExts,
		})
	}
}

// release gives up the core's unit of activity: it ran dry, or is stopping.
// The core that gives up the worker's last unit answers the requests still
// queued, empty, and returns the worker's credit to the master.
func (c *core) release(st *stepCtx) {
	left, rep := st.retire()
	for _, r := range left {
		c.w.answer(st, r, nil)
	}
	if rep != nil {
		c.w.report(rep)
	}
}

// donate grants queued steal requests from the core's own stack: the
// shallowest unconsumed extension, the largest subtree it can give away
// (cases (a)-(c) of Figure 9; the donor thread of Figure 9(b) is the owning
// core). It keeps the last extension for itself — giving that away would only
// swap the roles of donor and thief — so a request it cannot serve stays
// queued for a sibling, for its own next push, or for the empty answer when
// the worker runs dry. A remote request whose share could not be split off
// is declined: answered empty at once, and traced.
func (c *core) donate(st *stepCtx) {
	for c.stack.Pending() > 1 && !st.stopping() {
		r, ok := st.takeRequest()
		if !ok {
			return
		}
		var prefix []subgraph.Word
		if r.thief >= 0 || len(r.share) > 0 {
			prefix, _ = c.stack.StealShallowest()
		} else if st.run.tracer != nil {
			st.run.tracer.Emit(metrics.TraceEvent{Kind: metrics.TraceStealDecline, Step: st.run.key.Step, Worker: c.w.id, Core: c.local})
		}
		c.w.answer(st, r, prefix)
	}
}

// park is where a core out of local work waits for more: it gives up its
// unit of activity, asks its siblings once (the request stays queued until a
// busy core grants it or the worker runs dry) and blocks on its mailbox, the
// end of the step, and — with external stealing on — a back-off timer. Each
// time the timer fires the core asks the attempt's other participants in
// turn (case (b) of Figure 9), one request at a time, and doubles the
// back-off after a fruitless round: remote requests are messages, so they
// must not flood victims. Nothing here wakes up to look for work:
// with internal stealing alone the core sleeps until it is granted a prefix
// or the step ends.
//
// Time blocked with a request of the core's unanswered is steal time; time
// blocked with nothing asked — nobody had anything to give — is idle time.
// Installing the granted prefix is busy time again.
func (c *core) park(st *stepCtx) (prefix []subgraph.Word, ok bool) {
	c.release(st)
	w := c.w
	siblings := w.cfg.WS.internal() && len(w.cores) > 1
	remote := w.cfg.WS.external() && len(st.run.parts) > 1
	var timeout <-chan time.Time
	if remote {
		first := w.cfg.idleSleep
		if c.askedRemote { // still waiting for the answer to an earlier spell's request
			first = w.cfg.WorkerTimeout
		}
		timeout = c.arm(first)
		defer c.backoff.Stop()
	}
	backoff, victim := 1, 0
	misses := int64(0)
	// miss journals a request that brought no work. Journalling every one
	// would flood the ring with identical events, so only the first of the
	// idle spell (and every external one, which back off exponentially) is
	// emitted. The eventual hit event carries the spell's miss count.
	miss := func(external bool) {
		if misses++; external || misses == 1 {
			c.traceSteal(st, external, false, misses)
		}
	}
	for {
		if siblings && !c.asked {
			if c.asked = st.post(stealReq{thief: c.local}); !c.asked {
				miss(false)
			}
		}
		waitStart := time.Now()
		select {
		case g := <-st.mail[c.local]:
			c.bookWait(waitStart)
			late := g.external && !c.askedRemote // answers a request the core had given up on
			if g.external {
				c.askedRemote = false
			} else {
				c.asked = false
			}
			if len(g.prefix) > 0 {
				if g.external {
					c.ctr.StealsExternal++
					c.ctr.StealBytes += int64(4 * len(g.prefix))
				} else {
					c.ctr.StealsInternal++
				}
				c.traceSteal(st, g.external, true, misses)
				return g.prefix, true
			}
			miss(g.external)
			if !g.external || late {
				continue
			}
		case <-timeout:
			// The back-off is over, or the response to the round's last
			// request was lost (a lost grant takes its credit with it, which
			// the master convicts): moving on keeps the core schedulable.
			c.bookWait(waitStart)
			if c.askedRemote {
				miss(true)
			}
		case <-st.doneCh:
			c.bookWait(waitStart)
			return nil, false
		}
		// The round moves on to its next victim, or ends.
		if c.askedRemote = c.askNext(st, &victim); c.askedRemote {
			timeout = c.arm(w.cfg.WorkerTimeout)
		} else {
			if backoff < 64 {
				backoff *= 2
			}
			timeout = c.arm(w.cfg.idleSleep * time.Duration(backoff))
		}
	}
}

// bookWait books the time a parked core was blocked since t.
func (c *core) bookWait(t time.Time) {
	if d := int64(time.Since(t)); c.asked || c.askedRemote {
		c.ctr.StealTimeNs += d
	} else {
		c.ctr.IdleTimeNs += d
	}
}

// arm (re)starts the core's back-off timer and returns its channel.
func (c *core) arm(d time.Duration) <-chan time.Time {
	if c.backoff == nil {
		c.backoff = time.NewTimer(d)
		return c.backoff.C
	}
	if !c.backoff.Stop() {
		select {
		case <-c.backoff.C:
		default:
		}
	}
	c.backoff.Reset(d)
	return c.backoff.C
}

// askNext sends a steal request to the next participant of the current round
// (*victim is its rank offset; 0 between rounds) and reports whether one is
// now on its way; false ends the round.
func (c *core) askNext(st *stepCtx, victim *int) bool {
	w := c.w
	for *victim++; *victim < len(st.run.parts); *victim++ {
		to := rpc.NodeID(st.run.parts[(st.rank+*victim)%len(st.run.parts)])
		req := stealReqMsg{attemptKey: st.run.key, Worker: w.id, Core: c.local}
		if w.tr.Send(to, rpc.Envelope{Kind: kStealReq, Body: encode(req)}) == nil {
			return true
		}
	}
	*victim = 0
	return false
}

// traceSteal journals one steal attempt; a no-op without a tracer.
func (c *core) traceSteal(st *stepCtx, external, hit bool, misses int64) {
	if st.run.tracer == nil {
		return
	}
	st.run.tracer.Emit(metrics.TraceEvent{
		Kind: metrics.TraceStealAttempt, Step: st.run.key.Step,
		Worker: c.w.id, Core: c.local,
		External: external, Hit: hit, Value: misses,
	})
}

// process applies the primitives that follow the depth-th extension to the
// embedding extended by w (the recursive body of Algorithm 1, iterated).
func (c *core) process(st *stepCtx, emb *subgraph.Embedding, depth int, w subgraph.Word) {
	emb.Push(w)
	s := st.run.step
	prims := s.Primitives
	for i := s.ExtIdx[depth] + 1; i < len(prims); i++ {
		p := &prims[i]
		switch p.Kind {
		case step.Extend:
			exts, tested := emb.Extensions(c.extScratch[:0])
			c.extScratch = exts
			c.ctr.ExtensionTests += int64(tested)
			if len(exts) > 0 {
				// PushCopy copies both slices into the level's own buffers,
				// so the steady-state DFS loop allocates nothing per subgraph.
				c.stack.PushCopy(emb.Words(), exts)
			}
			return
		case step.LocalFilter:
			if !p.Filter(emb) {
				return
			}
		case step.AggFilter:
			store, ok := st.run.env.Get(p.AggName)
			if !ok {
				return
			}
			if p.ClassPred == nil {
				if !p.AggPred(emb, store) {
					return
				}
			} else if !emb.ClassPasses(p.ClassBit, func(cl *pattern.Class, lab *pattern.Labeller) bool {
				return p.ClassPred(cl, store, lab)
			}) {
				return
			}
		case step.Aggregate:
			if !s.Computed[p.Agg.Name] {
				p.Agg.Emit(emb, st.localAggs[c.local][p.Agg.Name])
			}
		case step.Visit:
			p.VisitFn(emb)
		}
	}
	// Complete embedding for this step.
	c.ctr.Subgraphs++
}

// install rebuilds the embedding from a stolen prefix and processes its last
// word exactly as the victim would have.
func (c *core) install(st *stepCtx, emb *subgraph.Embedding, prefix []subgraph.Word) {
	last := prefix[len(prefix)-1]
	emb.Replay(prefix[:len(prefix)-1])
	depth := len(prefix) - 1
	if depth == 0 && !emb.ValidInitial(last) {
		return
	}
	c.process(st, emb, depth, last)
}
