package sched

import (
	"sync/atomic"
	"time"

	"fractal/internal/enumerator"
	"fractal/internal/metrics"
	"fractal/internal/rpc"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// core is one execution core of a worker: it owns an Embedding (the mutable
// subgraph of Algorithm 1) and a stack of subgraph enumerators, and runs the
// depth-first step processing loop. Other cores (and the worker's message
// router, on behalf of remote workers) steal from its enumerator stack.
type core struct {
	w          *worker
	local      int // index within the worker
	stack      enumerator.Stack
	respCh     chan stealRespMsg // external steal responses routed here
	extScratch []subgraph.Word

	// ctr is the counter block of the step attempt the core is running:
	// plain memory this core alone writes. startStep zeroes it before the
	// core's goroutine starts and the worker reads it after st.wg.Wait(), so
	// counting an extension test or a subgraph touches no shared cache line.
	ctr metrics.Snapshot
	// progress counts the embeddings the core has processed in the attempt.
	// It is the one counter read while the step runs (reportStatus sums the
	// cores' for the master's quiescence rounds), hence atomic — but this
	// core is its only writer.
	progress atomic.Int64
	// state is the core's latest stack estimate, already folded into
	// st.stateTotal; statePeak is the highest worker total the core has
	// seen. Every change of the total is made, and seen, by some core, so
	// the worker's peak is the largest statePeak.
	state, statePeak int64
}

func newCore(w *worker, local int) *core {
	return &core{
		w:      w,
		local:  local,
		respCh: make(chan stealRespMsg, 4),
	}
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
	// idle accumulates only the sleeps between failed steal attempts;
	// stealScan accumulates the time spent scanning victims and waiting on
	// steal responses (it becomes ctr.StealTimeNs). Keeping the
	// two apart makes busy = total - idle - stealScan an honest "holding
	// work" measure: booking scan time into idle would make
	// busy+stealTime double-count the scans and skew StealOverhead().
	var idle, stealScan time.Duration

	var emb *subgraph.Embedding
	if st.customs != nil {
		emb = subgraph.NewCustom(st.graph, st.customs[c.gidx(st)])
	} else {
		emb = subgraph.New(st.graph, st.kind, st.plan)
	}
	c.drainResponses()
	c.stack.Clear()
	// The core is already marked active: startStep incremented the counter
	// for every core before launching the goroutines.
	c.stack.Push(enumerator.NewRoot(c.gidx(st), st.totalCores, emb.InitialDomain()))

	for {
		// Cancellation is polled once per DFS iteration (one extension
		// consumed per iteration), which bounds the reaction latency to a
		// single embedding's processing time. Only cancellation exits the
		// loop mid-work: an ordinary step end (finish) lets the core drain
		// its local subtree, so a quiescence decision that raced with a
		// just-started core loses no work. The shared abort flag is
		// checked too because it lands well before the cancel control
		// message when the machine is oversubscribed.
		if st.aborted() {
			break
		}
		e := c.stack.Top()
		if e == nil {
			// Out of local work. Internal steals are shared-memory scans,
			// so they are retried at a fixed short cadence; external steals
			// generate messages, so they back off exponentially — both to
			// avoid flooding victims and so the master's quiescence
			// detector can observe a window with no steal traffic in
			// flight.
			st.activeDec()
			got := false
			extBackoff := 1
			attempt := 0
			misses := int64(0)
			var idleTimer *time.Timer
			for !st.halted() {
				scanStart, workStart := time.Now(), c.ctr.Work()
				st.activeInc()
				var prefix []subgraph.Word
				var ok, external bool
				if c.w.cfg.WS.internal() {
					if prefix, ok = c.stealInternal(st); ok {
						c.ctr.StealsInternal++
					}
				}
				if !ok && c.w.cfg.WS.external() && attempt >= extBackoff {
					attempt = 0
					if extBackoff < 64 {
						extBackoff *= 2
					}
					prefix, ok = c.stealExternal(st)
					external = true
				}
				// Steal time stops here: installing and processing the
				// stolen prefix is real enumeration work, so it belongs to
				// busy time, not steal overhead. StealScanWork is how far the
				// core's own work advanced inside the scan interval: always
				// zero, and recorded so tests can hold the accounting to that
				// by a counter, not a wall-clock ratio.
				stealScan += time.Since(scanStart)
				c.ctr.StealScanWork += c.ctr.Work() - workStart
				if ok {
					c.traceSteal(st, external, true, misses)
					c.install(st, emb, prefix)
					got = true
					break
				}
				// Internal misses recur at the IdleSleep cadence; journaling
				// each would flood the ring with identical events, so only
				// the first miss of an idle spell (and every external
				// attempt, which backs off exponentially) is emitted. The
				// eventual hit event carries the spell's miss count.
				misses++
				if external || misses == 1 {
					c.traceSteal(st, external, false, misses)
				}
				st.activeDec()
				// The idle nap aborts the moment the step halts (step end,
				// cancellation, shutdown): a long IdleSleep must not delay
				// teardown by up to a full period per core.
				sleepStart := time.Now()
				if idleTimer == nil {
					idleTimer = time.NewTimer(c.w.cfg.IdleSleep)
				} else {
					idleTimer.Reset(c.w.cfg.IdleSleep)
				}
				select {
				case <-idleTimer.C:
				case <-st.doneCh:
					idleTimer.Stop()
				}
				idle += time.Since(sleepStart)
				attempt++
			}
			if !got {
				break
			}
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

	c.ctr.BusyTimeNs = int64(time.Since(start) - idle - stealScan)
	c.ctr.IdleTimeNs = int64(idle)
	c.ctr.StealTimeNs = int64(stealScan)
	c.ctr.CoreWork = []int64{c.ctr.Work()}
	c.ctr.QuickPatterns, c.ctr.CanonCalls = emb.ClassStats()
	if st.aborted() {
		// Drop the remaining enumeration state so thieves find nothing and
		// memory is released promptly; record how much work was abandoned.
		c.ctr.AbandonedExts = c.stack.Abandon()
		if st.tracer != nil {
			st.tracer.Emit(metrics.TraceEvent{
				Kind: metrics.TraceDrain, Step: st.index,
				Worker: c.w.id, Core: c.local, Value: c.ctr.AbandonedExts,
			})
		}
	}
}

// traceSteal journals one steal attempt; a no-op without a tracer.
func (c *core) traceSteal(st *stepCtx, external, hit bool, misses int64) {
	if st.tracer == nil {
		return
	}
	st.tracer.Emit(metrics.TraceEvent{
		Kind: metrics.TraceStealAttempt, Step: st.index,
		Worker: c.w.id, Core: c.local,
		External: external, Hit: hit, Value: misses,
	})
}

// process applies the primitives that follow the depth-th extension to the
// embedding extended by w (the recursive body of Algorithm 1, iterated).
func (c *core) process(st *stepCtx, emb *subgraph.Embedding, depth int, w subgraph.Word) {
	emb.Push(w)
	c.progress.Add(1)
	prims := st.s.Primitives
	for i := st.s.ExtIdx[depth] + 1; i < len(prims); i++ {
		p := &prims[i]
		switch p.Kind {
		case step.Extend:
			exts, tested := emb.Extensions(c.extScratch[:0])
			c.extScratch = exts
			c.ctr.ExtensionTests += int64(tested)
			if len(exts) > 0 {
				// PushCopy copies both slices into stack-pooled storage, so
				// the steady-state DFS loop allocates nothing per subgraph.
				c.stack.PushCopy(emb.Words(), exts)
				c.observeState(st)
			}
			return
		case step.LocalFilter:
			if !p.Filter(emb) {
				return
			}
		case step.AggFilter:
			store, ok := st.env.Get(p.AggName)
			if !ok || !p.AggPred(emb, store) {
				return
			}
		case step.Aggregate:
			if !st.s.Computed[p.Agg.Name] {
				p.Agg.Emit(emb, st.localAggs[c.local][p.Agg.Name])
			}
		case step.Visit:
			p.VisitFn(emb)
		}
	}
	// Complete embedding for this step.
	c.ctr.Subgraphs++
}

// stealInternal scans sibling cores round-robin and steals the shallowest
// available prefix (case (a)/(c) of Figure 9).
func (c *core) stealInternal(st *stepCtx) ([]subgraph.Word, bool) {
	n := len(c.w.cores)
	for off := 1; off < n; off++ {
		victim := c.w.cores[(c.local+off)%n]
		if prefix, ok := victim.stack.StealShallowest(); ok {
			return prefix, true
		}
	}
	return nil, false
}

// stealExternal sends steal requests to the attempt's other participants
// round-robin and waits for each response (case (b) of Figure 9). The wait
// is abandoned when the master ends the step — post-quiescence responses can
// only be empty — and bounded by WorkerTimeout per victim: under fault
// injection a request or its response can vanish, and an unbounded wait
// would pin this core forever. A response lost this way leaves the worker's
// request/response counters permanently imbalanced, which is exactly what
// the master's steal-balance watchdog convicts — giving up here just keeps
// the core schedulable until the attempt is failed and retried.
func (c *core) stealExternal(st *stepCtx) ([]subgraph.Word, bool) {
	w := c.w
	parts := st.parts
	if len(parts) <= 1 {
		return nil, false
	}
	for off := 1; off < len(parts); off++ {
		victim := rpc.NodeID(parts[(st.rank+off)%len(parts)])
		req := stealReqMsg{Job: st.job, Step: st.index, Attempt: st.attempt, Worker: w.id, Core: c.local}
		w.reqSent.Add(1)
		if err := w.tr.Send(victim, rpc.Envelope{Kind: kStealReq, Body: encode(req)}); err != nil {
			w.reqSent.Add(-1) // never left this node
			continue
		}
		wait := time.NewTimer(w.cfg.WorkerTimeout)
		for {
			select {
			case resp := <-c.respCh:
				if resp.Job != st.job || resp.Step != st.index || resp.Attempt != st.attempt {
					continue // stale response from an earlier step or attempt
				}
				wait.Stop()
				if len(resp.Prefix) > 0 {
					c.ctr.StealsExternal++
					c.ctr.StealBytes += int64(4 * len(resp.Prefix))
					return resp.Prefix, true
				}
			case <-st.doneCh:
				wait.Stop()
				return nil, false
			case <-wait.C:
				// Response lost; move on to the next victim.
			}
			break
		}
	}
	return nil, false
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

// drainResponses discards stale steal responses left from a previous step.
func (c *core) drainResponses() {
	for {
		select {
		case <-c.respCh:
		default:
			return
		}
	}
}

// observeState records the current intermediate-state estimate: in Fractal
// the only live state is the enumerator stacks (prefixes plus extension
// lists), which is why memory stays flat as depth grows (Table 2). The core
// moves the worker's running total by the change of its own stack — one
// shared write per pushed level — and remembers the highest total it saw.
func (c *core) observeState(st *stepCtx) {
	nb := c.stack.StateBytes()
	total := st.stateTotal.Add(nb - c.state)
	c.state = nb
	if total > c.statePeak {
		c.statePeak = total
	}
}
