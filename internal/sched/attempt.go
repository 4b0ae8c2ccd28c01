package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// await the return of the credit it hands out, broadcast end, and merge the
// workers' aggregation partials.
// On any failure — context cancellation, deadline, or worker loss — the
// step is abandoned: the run's abort flag is flipped and a cancel message
// is broadcast so every reachable worker stops its cores and discards its
// partials. A master first forgets a lost worker it could not send to, so
// the cancel neither dials it nor waits for its answer.
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
	var home credit
	start.attemptKey, start.Workers = run.key, r.named(run.parts)
	start.Share, home = splitUnit(len(run.parts))
	startBody := encode(start)
	for _, wid := range run.parts {
		if e := r.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kStepStart, Body: startBody}); e != nil {
			return &WorkerLostError{Worker: wid, Step: run.key.Step, Phase: "step-start", Err: e}
		}
	}
	if err := r.awaitQuiescence(ctx, run, home); err != nil {
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

// cancelDrainWait bounds how long the master waits for workers to answer a
// cancel before returning with the partial report. Cores stop on the
// interrupt within one DFS iteration, so healthy workers answer as soon as
// the control message makes it through; the cap only matters when a worker
// is dead, and is kept small so cancellation latency stays well under the
// 100ms target.
const cancelDrainWait = 75 * time.Millisecond

// broadcastCancel tells every worker to abandon the step — first by
// interrupting the cores of in-process workers (instant), then through
// cancel messages that serialize the stop at each router — and waits
// (bounded by cancelDrainWait) for the done messages that answer them,
// which carry the workers' counters into the partial step report. Sends are
// best-effort: a worker that cannot be reached is typically the one whose
// loss is being handled, and a worker that does not answer is missing from
// the report.
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
			if env.Kind != kAggDone {
				continue // stale status reports, agg data, …
			}
			var m aggDoneMsg
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

// awaitQuiescence is the master's termination detection, by credit recovery
// (DESIGN §6): the attempt's step is over once home, the part of the unit no
// participant was given, and the largest returned total each participant
// has reported sum to the unit. WorkerTimeout of silence from every
// participant sends a liveness probe, and its answers convict: a participant
// that cannot be sent to or stays silent ("quiescence"), one not running the
// attempt ("step-start"), or, when every one answers idle with credit still
// missing and none came home while the probe was out, the grant lost in
// flight ("steal-balance", Worker -1: a retry re-executes over the same
// set). A donor that grants during the probe returns credit before it can
// answer idle, so answers taken at different moments cannot convict it.
// DESIGN §11 prices a worker dying busy.
func (r *Runtime) awaitQuiescence(ctx context.Context, run *jobRun, home credit) error {
	returned := make(map[int]credit, len(run.parts))
	for _, wid := range run.parts {
		returned[wid] = nil
	}
	// probe holds the participants yet to answer the probe out (nil: none),
	// round what its answers reported, and moved whether credit came home
	// since it was sent; it is journalled once every answer is in or the
	// step ends.
	var probe map[int]bool
	var moved bool
	var round QuiescenceRound
	var sent time.Time
	ping := rpc.Envelope{Kind: kStatusPing, Body: encode(run.key)}
	silence := time.NewTimer(r.cfg.WorkerTimeout)
	defer silence.Stop()
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
			prev, ok := returned[m.Worker]
			if !ok {
				continue
			}
			rearm(silence, r.cfg.WorkerTimeout)
			if !m.Running { // its part of the root domain will never be enumerated
				return &WorkerLostError{Worker: m.Worker, Step: run.key.Step, Phase: "step-start", Err: notRunning(m.Err)}
			}
			if slices.Compare(prev, m.Returned) < 0 {
				returned[m.Worker], moved = m.Returned, true
			}
			if m.Reply && probe[m.Worker] {
				round.Active += m.Active
				delete(probe, m.Worker)
			}
			sum := home
			for _, c := range returned {
				sum.add(c)
			}
			over := slices.Equal(sum, unit)
			if probe != nil && (len(probe) == 0 || over) {
				round.Round, round.Wait, probe = int64(len(run.rounds)+1), time.Since(sent), nil
				run.recordRound(round)
				if !over && round.Active == 0 && !moved {
					return &WorkerLostError{Worker: -1, Step: run.key.Step, Phase: "steal-balance"}
				}
			}
			if over {
				return nil
			}
		case <-silence.C:
			for _, wid := range run.parts {
				if probe[wid] {
					return &WorkerLostError{Worker: wid, Step: run.key.Step, Phase: "quiescence"}
				}
			}
			probe, round, sent, moved = make(map[int]bool, len(run.parts)), QuiescenceRound{}, time.Now(), false
			for _, wid := range run.parts {
				probe[wid] = true
				if err := r.master.Send(rpc.NodeID(wid), ping); err != nil {
					return &WorkerLostError{Worker: wid, Step: run.key.Step, Phase: "quiescence", Err: err}
				}
			}
			rearm(silence, r.cfg.WorkerTimeout)
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
