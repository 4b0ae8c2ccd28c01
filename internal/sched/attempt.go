package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fractal/internal/agg"
	"fractal/internal/metrics"
	"fractal/internal/rpc"
	"fractal/internal/step"
)

// The per-step protocol of one attempt: start the step on every participant,
// detect its end, end it, and collect its aggregations — or abandon it.

// effectFree reports whether a step computes no new aggregation and visits
// nothing, so executing it would only re-enumerate with no observable
// output.
func (r *Runtime) effectFree(s *step.Step) bool {
	if len(s.AggSpecs()) > 0 {
		return false
	}
	for _, p := range s.Primitives {
		if p.Kind == step.Visit {
			return false
		}
	}
	return true
}

// executeStep drives one fractal step: broadcast start (start with the
// attempt's key and participants; in master mode it carries their
// addresses, the job's spec and the encoded aggregations the step reads),
// poll for global quiescence, broadcast end, and merge the workers'
// aggregation partials.
// On any failure — context cancellation, deadline, or worker loss — the
// step is abandoned: the run's abort flag is flipped and a cancel message
// is broadcast so every reachable worker drains its cores and discards its
// partials. A master first forgets a lost worker it could not send to, so
// the cancel neither dials it nor waits for its ack.
func (r *Runtime) executeStep(ctx context.Context, run *jobRun, start stepStartMsg) (err error) {
	defer func() {
		if err != nil {
			var lost *WorkerLostError
			if errors.As(err, &lost) && r.unreachable(lost) {
				r.reg.drop(lost.Worker)
			}
			r.broadcastCancel(run)
		}
	}()
	if run.tracer != nil {
		run.tracer.Emit(metrics.TraceEvent{Kind: metrics.TraceStepStart, Step: run.key.Step, Worker: -1, Core: -1})
	}
	start.attemptKey, start.Workers = run.key, r.named(run.parts)
	startBody := encode(start)
	for _, wid := range run.parts {
		if e := r.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kStepStart, Body: startBody}); e != nil {
			return &WorkerLostError{Worker: wid, Step: run.key.Step, Phase: "step-start", Err: e}
		}
	}
	if err := r.awaitQuiescence(ctx, run); err != nil {
		return err
	}
	endBody := encode(run.key)
	for _, wid := range run.parts {
		if e := r.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kStepEnd, Body: endBody}); e != nil {
			return &WorkerLostError{Worker: wid, Step: run.key.Step, Phase: "step-end", Err: e}
		}
	}
	if err := r.collectAggregations(ctx, run); err != nil {
		return err
	}
	if run.tracer != nil {
		run.tracer.Emit(metrics.TraceEvent{Kind: metrics.TraceStepEnd, Step: run.key.Step, Worker: -1, Core: -1})
	}
	return nil
}

// unreachable reports whether lost is a worker a master could not send to:
// it is gone, and the registry forgets it (executeStep), so the attempt it
// failed re-runs without charging StepRetries (runJob).
func (r *Runtime) unreachable(lost *WorkerLostError) bool {
	return r.reg != nil && lost.Worker >= 0 && lost.Err != nil && !errors.Is(lost.Err, errNotRunning)
}

// cancelDrainWait bounds how long the master waits for workers to
// acknowledge a cancel before returning with the partial report. Cores stop
// on the interrupt within one DFS iteration, so healthy workers
// ack as soon as the control message makes it through; the cap only matters
// when a worker is dead, and is kept small so cancellation latency stays
// well under the 100ms target.
const cancelDrainWait = 75 * time.Millisecond

// broadcastCancel tells every worker to abandon the step — first by
// interrupting the cores of in-process workers (instant), then through
// cancel messages that serialize the drain at each router — and waits
// (bounded by cancelDrainWait) for the drain acks, which carry the workers' counters
// into the partial step report. Sends are best-effort: a worker that cannot
// be reached is typically the one whose loss is being handled, and an
// unacked worker is missing from the report.
func (r *Runtime) broadcastCancel(run *jobRun) {
	run.cancelled.Store(true)
	for _, w := range r.workers {
		w.interrupt(run.key)
	}
	if run.tracer != nil {
		run.tracer.Emit(metrics.TraceEvent{Kind: metrics.TraceCancel, Step: run.key.Step, Worker: -1, Core: -1})
	}
	body := encode(run.key)
	// Cancel goes to every worker, not just this attempt's participants: an
	// excluded worker may still be draining the failed attempt that got it
	// excluded.
	all := r.participantsFor(nil)
	for _, id := range all {
		r.master.Send(rpc.NodeID(id), rpc.Envelope{Kind: kCancel, Body: body})
	}
	acked := map[int]bool{}
	defer func() {
		if run.tracer != nil {
			run.tracer.Emit(metrics.TraceEvent{
				Kind: metrics.TraceDrain, Step: run.key.Step,
				Worker: -1, Core: -1, Value: int64(len(acked)),
			})
		}
	}()
	deadline := time.NewTimer(cancelDrainWait)
	defer deadline.Stop()
	for len(acked) < len(all) {
		select {
		case env, ok := <-r.inbox.Recv():
			if !ok {
				return
			}
			if env.Kind != kCancelAck {
				continue // stale status reports, agg data, …
			}
			var m cancelAckMsg
			if decode(env.Body, &m) != nil || m.attemptKey != run.key {
				continue
			}
			acked[m.Worker] = true
			run.recordCounters(m.Worker, m.Counters)
		case <-deadline.C:
			return
		}
	}
}

// awaitQuiescence is the master's termination detection: it returns once
// every participant is idle and no work is in flight between them, or fails
// the attempt. Workers report only the edges of their activity count, each
// report numbered (Seq) and carrying the worker's counts of work-carrying
// steal grants sent and adopted; the master starts every participant as busy
// at Seq 1 and keeps each one's newest report. It decides in two stages
// (DESIGN §6): a candidate — every newest report idle, and the grants sent
// summing to the grants adopted — and one ping wave confirming it, every
// participant answering with the Seq the candidate holds for it. The wave is
// what makes the decision sound: out-of-order reports can balance falsely,
// one worker's stale idle report hiding a grant another's fresh report
// counts as adopted.
//
// WorkerTimeout is the only timer: one clock for all participants, re-armed
// by any participant's report and by every wave sent. When all of them have
// been silent for WorkerTimeout the master probes with the same ping wave: a
// participant that cannot be sent to, or leaves the probe unanswered through
// the next WorkerTimeout of silence, is lost ("quiescence"); one that answers
// that it is not running the attempt lost its step start or could not
// install the job ("step-start"); and
// idle participants whose grant counts stay imbalanced across two silences
// lost a grant in flight — no single worker to blame (Worker -1), so a retry
// re-executes over the same set ("steal-balance"). DESIGN §11 prices what
// this costs when a worker dies busy.
func (r *Runtime) awaitQuiescence(ctx context.Context, run *jobRun) error {
	last := make(map[int]statusReportMsg, len(run.parts))
	for _, wid := range run.parts {
		last[wid] = statusReportMsg{Seq: 1, Active: 1}
	}
	// wave maps the participants yet to answer the outstanding ping wave to
	// the Seq it asks them to confirm (nil: no wave out); confirming holds
	// while the wave tests a candidate and every answer has confirmed.
	var (
		wave       map[int]int64
		confirming bool
		waveStart  time.Time
		waveActive int64
		stuck      bool
	)
	quiet := func() (idle, balanced bool) {
		var granted, adopted int64
		idle = true
		for _, m := range last {
			idle = idle && m.Active == 0
			granted += m.Granted
			adopted += m.Adopted
		}
		return idle, granted == adopted
	}
	ping := rpc.Envelope{Kind: kStatusPing, Body: encode(run.key)}
	silence := time.NewTimer(r.cfg.WorkerTimeout)
	defer silence.Stop()
	// A wave's answers get a full WorkerTimeout once it is out.
	sendWave := func(candidate bool) error {
		wave, confirming, waveStart, waveActive = make(map[int]int64, len(run.parts)), candidate, time.Now(), 0
		for _, wid := range run.parts {
			wave[wid] = last[wid].Seq
			if err := r.master.Send(rpc.NodeID(wid), ping); err != nil {
				return &WorkerLostError{Worker: wid, Step: run.key.Step, Phase: "quiescence", Err: err}
			}
		}
		rearm(silence, r.cfg.WorkerTimeout)
		return nil
	}
	for {
		select {
		case env, ok := <-r.inbox.Recv():
			if !ok {
				return fmt.Errorf("master transport closed")
			}
			var m statusReportMsg
			if env.Kind != kStatusReport || decode(env.Body, &m) != nil || m.attemptKey != run.key {
				continue // stale reports, agg data of abandoned attempts, …
			}
			prev, ok := last[m.Worker]
			if !ok {
				continue
			}
			rearm(silence, r.cfg.WorkerTimeout)
			if m.Reply && m.Seq == 0 {
				// The participant is reachable but not running the attempt:
				// it never received its step start, or could not install the
				// job. Its partition of the root domain is not being
				// enumerated and never will be.
				return &WorkerLostError{Worker: m.Worker, Step: run.key.Step, Phase: "step-start", Err: notRunning(m.Err)}
			}
			if m.Seq > prev.Seq {
				last[m.Worker] = m
				stuck = false
			}
			if want, asked := wave[m.Worker]; asked && m.Reply {
				confirming = confirming && m.Seq == want
				waveActive += m.Active
				if delete(wave, m.Worker); len(wave) > 0 {
					continue
				}
				wave = nil
				run.recordRound(QuiescenceRound{Round: int64(len(run.rounds) + 1), Wait: time.Since(waveStart), Active: waveActive})
				if confirming {
					return nil
				}
			}
			if idle, balanced := quiet(); wave == nil && idle && balanced {
				if err := sendWave(true); err != nil {
					return err
				}
			}
		case <-silence.C:
			if wave != nil {
				for _, wid := range run.parts {
					if _, missing := wave[wid]; missing {
						return &WorkerLostError{Worker: wid, Step: run.key.Step, Phase: "quiescence"}
					}
				}
			}
			if idle, balanced := quiet(); idle && !balanced {
				if stuck {
					return &WorkerLostError{Worker: -1, Step: run.key.Step, Phase: "steal-balance"}
				}
				stuck = true
			}
			if err := sendWave(false); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// rearm restarts t for d, discarding a tick that fired while its receive
// loop was busy: under go.mod's go 1.22 a timer's channel keeps a fired tick
// across Reset, and a stale tick would convict a worker that had no chance
// to answer.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// collectAggregations gathers every worker's frames and folds them into the
// environment.
//
// Frame bodies are kept as received, per aggregation and worker in arrival
// order — the receive loop does no CPU work between messages, so a slow fold
// cannot backpressure the transport. Once every worker has reported, one
// ordered fold per aggregation walks the workers' frame sequences together
// (agg.Store.FoldFrames, DESIGN §9): a key's values are decoded, reduced and
// put to the aggFilter there and then, so the master holds the frame bytes
// and the surviving entries and never a decoded partial. A frame lost on the
// way leaves received short of Sent and is a lost worker; frames out of key
// order are a corrupt partial. Each done message also delivers its worker's
// counter block — attempt-checked like the frames, so a failed attempt's
// counters never reach the retry's report — and the master's own fold time
// joins them.
func (r *Runtime) collectAggregations(ctx context.Context, run *jobRun) error {
	specs := run.step.AggSpecs()
	// frames[name][rank] is that worker's frame sequence.
	frames := map[string][][][]byte{}
	for _, sp := range specs {
		frames[sp.Name] = make([][][]byte, len(run.parts))
	}
	rank := map[int]int{}
	for i, wid := range run.parts {
		rank[wid] = i
	}
	doneWorkers := 0
	done := map[int]bool{}
	expected := map[int]int{}
	received := map[int]int{}
	// lost is reset on every message: a worker is only considered lost after
	// a silent stretch, not merely slow to send many frames.
	lost := time.NewTimer(r.cfg.WorkerTimeout)
	defer lost.Stop()
	for doneWorkers < len(run.parts) {
		select {
		case env, ok := <-r.inbox.Recv():
			if !ok {
				return fmt.Errorf("master transport closed")
			}
			rearm(lost, r.cfg.WorkerTimeout)
			switch env.Kind {
			case kAggData:
				var m aggDataMsg
				// The attempt check is what makes retries exactly-once: a
				// frame shipped by a failed attempt (still queued when the
				// master gave up on it) must never fold into the retry's
				// result — dropping it here is safe precisely because the
				// retry re-enumerates everything the failed attempt did.
				if decode(env.Body, &m) != nil || m.attemptKey != run.key {
					continue
				}
				at, ok := rank[m.Worker]
				if !ok {
					continue // not a participant of this attempt
				}
				seqs, ok := frames[m.Name]
				if !ok {
					// The two ends disagree about the step: waiting for the
					// count to add up would blame a worker that is alive.
					return &AggregationError{Worker: m.Worker, Reasons: []string{
						fmt.Sprintf("frame of unknown aggregation %q", m.Name),
					}}
				}
				seqs[at] = append(seqs[at], m.Data)
				received[m.Worker]++
				if exp, ok := expected[m.Worker]; ok && received[m.Worker] == exp {
					doneWorkers++
					done[m.Worker] = true
				}
			case kAggDone:
				var m aggDoneMsg
				if decode(env.Body, &m) != nil || m.attemptKey != run.key {
					continue
				}
				run.recordCounters(m.Worker, m.Counters)
				if len(m.Errs) > 0 {
					// The worker could not assemble (or ship) some of its
					// partials: fail the step rather than commit a result
					// that silently misses its contribution.
					return &AggregationError{Worker: m.Worker, Reasons: m.Errs}
				}
				expected[m.Worker] = m.Sent
				if received[m.Worker] == m.Sent {
					doneWorkers++
					done[m.Worker] = true
				}
			}
		case <-ctx.Done():
			return ctx.Err()
		case <-lost.C:
			missing := -1
			for _, wid := range run.parts {
				if !done[wid] {
					missing = wid
					break
				}
			}
			return &WorkerLostError{Worker: missing, Step: run.key.Step, Phase: "aggregation"}
		}
	}
	mergeStart := time.Now()
	defer func() { run.mergeTime = time.Since(mergeStart) }()
	stop := func() bool { return ctx.Err() != nil || run.cancelled.Load() }
	for _, sp := range specs {
		folded, err := sp.Proto.FoldFrames(frames[sp.Name], stop)
		if err != nil {
			if errors.Is(err, agg.ErrMergeCancelled) && ctx.Err() != nil {
				return ctx.Err()
			}
			return &AggregationError{Worker: -1, Reasons: []string{
				fmt.Sprintf("folding %q partials: %v", sp.Name, err),
			}}
		}
		delete(frames, sp.Name) // folded: the frame bytes may go
		run.env.Put(sp.Name, folded)
	}
	return nil
}
