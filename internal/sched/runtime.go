package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/metrics"
	"fractal/internal/pattern"
	"fractal/internal/rpc"
	"fractal/internal/step"
	"fractal/internal/subgraph"
)

// Job is one fractoid execution: a workflow over an input graph with a given
// extension strategy, evaluated against an environment of previously
// computed aggregations.
type Job struct {
	// Graph is the input graph (or a reduced view of it, Section 4.3).
	Graph *graph.Graph
	// Kind selects the extension strategy.
	Kind subgraph.Kind
	// Plan is required iff Kind is PatternInduced.
	Plan *pattern.Plan
	// Custom optionally overrides extension-candidate generation
	// (Appendix B); cloned per execution core. Only valid with
	// VertexInduced.
	Custom subgraph.CustomExtender
	// Workflow is the primitive sequence to execute.
	Workflow step.Workflow
	// Env holds precomputed aggregations readable by AggFilter primitives
	// (e.g. the FSM loop's "support" from a previous execution). May be
	// nil.
	Env *agg.Registry
}

// Result is the outcome of a Job, and (as fractal.Result) of every public
// execution method and application driver.
type Result struct {
	// Aggregations contains every aggregation computed by the job (plus the
	// input environment's entries).
	Aggregations *agg.Registry
	// Steps reports per-step execution metrics.
	Steps []StepReport
	// Wall is the total wall-clock time.
	Wall time.Duration
	// Report is the machine-readable observability record of the run:
	// per-step counters and quiescence rounds, transport traffic, and the
	// trace journal when tracing was enabled. It is populated on every Run
	// return, including cancelled and failed runs; export it with
	// Report.WriteJSON.
	Report *RunReport
}

// TotalEC sums the extension cost across steps.
func (r *Result) TotalEC() int64 {
	var t int64
	for _, s := range r.Steps {
		t += s.EC
	}
	return t
}

// TotalSubgraphs sums processed complete embeddings across steps.
func (r *Result) TotalSubgraphs() int64 {
	var t int64
	for _, s := range r.Steps {
		t += s.Subgraphs
	}
	return t
}

// jobRun is the shared (in-process) state of one step attempt, published by
// the master before broadcasting step starts. In the paper this is the
// fractoid piggybacked on the Spark job submission. Every retry of a step
// gets a fresh jobRun — fresh counter blocks, fresh abort flag — so what a
// failed attempt counted is discarded with its partials, and aborting it
// cannot abort the retry.
type jobRun struct {
	job int
	// attempt numbers the executions of the current step (0 on the first
	// try); step-scoped messages carry it so both sides can discard
	// leftovers of abandoned attempts.
	attempt int
	// parts lists the participating worker IDs, in rank order: a retry
	// excludes workers lost earlier in the job, and the survivors
	// re-partition the root domain among totalCores = len(parts) ×
	// CoresPerWorker cores indexed by rank.
	parts      []int
	totalCores int
	graph      *graph.Graph
	kind       subgraph.Kind
	plan       *pattern.Plan
	// customs holds one clone of the job's custom extender per core of the
	// attempt, by global core index (nil without one); see cloneCustom.
	customs []subgraph.CustomExtender
	steps   []*step.Step
	env     *agg.Registry
	// blocks holds the counter block each worker shipped with the message
	// that ended its part of the attempt (aggDoneMsg, or cancelAckMsg on a
	// drain), by worker ID; mergeTime is the master's own fold
	// time. Master-only, like rounds: workers count into their cores' blocks
	// and never see these.
	blocks    map[int]metrics.Snapshot
	mergeTime time.Duration
	// tracer is the run's trace journal (nil when tracing is disabled).
	tracer *metrics.Tracer
	// envWire is the encoded environment delta shipped with the step start
	// (master mode only): every aggregation committed by earlier steps of
	// this job, so remote workers — including ones that joined mid-job —
	// reconstruct the environment the master's merge produced. In-process
	// runs share the registry by reference and leave it nil.
	envWire []envEntry
	// rounds journals the master's quiescence polling for the current step
	// (master-only, rebuilt per step); roundsTotal counts rounds past the
	// maxRecordedRounds cap.
	rounds      []QuiescenceRound
	roundsTotal int
	// cancelled is the abort flag: the master flips it, then interrupts the
	// in-process workers' cores directly, then broadcasts cancel messages. On
	// an oversubscribed machine compute-bound cores starve the transport
	// goroutines, so the interrupt is what actually bounds cancellation
	// latency; the messages then serialize the drain at each worker's router
	// and carry the acks back. A worker installing a step of this run reads
	// the flag after publishing the step, so neither order loses the stop.
	cancelled atomic.Bool
}

// Runtime is the master plus its workers. Create with New, run any number
// of jobs with Run (in-process deployments) or RunSpec (any deployment),
// and release with Close.
//
// With Config.ListenAddr set the runtime is a distributed master: it spawns
// no in-process workers and instead serves registrations from fractal-worker
// processes (ServeWorker) on its TCP listener. The worker set is dynamic —
// the registry feeds each step attempt's participant list, so a worker that
// registers mid-job joins at the next attempt boundary.
type Runtime struct {
	cfg     Config
	master  rpc.Transport
	workers []*worker
	// reg is the worker registry; non-nil exactly in master mode.
	reg *registry
	// graphs caches graphs loaded for spec-based jobs, keyed by path.
	graphs graphCache
	// inbox receives every step-protocol envelope. The router goroutine owns
	// master.Recv() and forwards here, peeling off registration traffic; the
	// run loop's quiescence, aggregation, and drain waits all read the inbox.
	inbox    chan rpc.Envelope
	routerWg sync.WaitGroup

	mu     sync.Mutex
	run    *jobRun
	jobSeq int
	closed bool
}

// New builds and starts a runtime.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	listen := cfg.ListenAddr
	cfg = cfg.withDefaults()
	rt := &Runtime{cfg: cfg, inbox: make(chan rpc.Envelope, inboxDepth)}
	if listen != "" {
		// Master mode: a TCP listener and a registry instead of in-process
		// workers.
		node, err := rpc.NewTCPNode(rpc.Master, listen, rpc.DefaultTCPOptions())
		if err != nil {
			return nil, fmt.Errorf("sched: master listener: %w", err)
		}
		rt.master = rpc.WithFaultInjector(node, cfg.FaultInjector)
		rt.reg = newRegistry(rt, node)
		rt.routerWg.Add(1)
		go rt.router()
		return rt, nil
	}
	ids := []rpc.NodeID{rpc.Master}
	for i := 0; i < cfg.Workers; i++ {
		ids = append(ids, rpc.NodeID(i))
	}
	var (
		nw  map[rpc.NodeID]rpc.Transport
		err error
	)
	if cfg.UseTCP {
		nw, err = rpc.NewTCPNetwork(ids)
		if err != nil {
			return nil, fmt.Errorf("sched: building TCP network: %w", err)
		}
	} else {
		nw = rpc.NewLoopbackNetwork(ids)
	}
	if cfg.FaultInjector != nil {
		for id, tr := range nw {
			nw[id] = rpc.WithFaultInjector(tr, cfg.FaultInjector)
		}
	}
	rt.master = nw[rpc.Master]
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker(i, cfg, rt, nw[rpc.NodeID(i)])
		rt.workers = append(rt.workers, w)
		w.start()
	}
	rt.routerWg.Add(1)
	go rt.router()
	return rt, nil
}

// inboxDepth buffers the master's step-protocol inbox. The run loop drains it
// continuously during a step; the buffer only absorbs between-step stragglers
// (late acks and partials of abandoned attempts).
const inboxDepth = 4096

// router owns the master transport's receive channel: registration traffic
// goes to the registry (it must be served even while no job is running, and
// while the run loop is blocked in a quiescence wait), everything else to the
// inbox the run loop reads. A full inbox drops the message — equivalent to a
// network loss, which every consumer already tolerates through attempt
// tagging and timeouts.
func (r *Runtime) router() {
	defer r.routerWg.Done()
	defer close(r.inbox)
	for env := range r.master.Recv() {
		switch env.Kind {
		case kRegister:
			if r.reg != nil {
				r.reg.handleRegister(env)
			}
		case kJobSpecAck:
			if r.reg != nil {
				r.reg.handleAck(env)
			}
		default:
			select {
			case r.inbox <- env:
			default:
			}
		}
	}
}

// Config returns the runtime's effective configuration.
func (r *Runtime) Config() Config { return r.cfg }

// ListenAddr returns the bound address of the master's listener ("" unless
// in master mode). With Config.ListenAddr ":0" this is how tests and
// launchers learn the actual port.
func (r *Runtime) ListenAddr() string {
	if r.reg == nil {
		return ""
	}
	return r.reg.node.Addr()
}

// AwaitWorkers blocks until at least n workers have registered (master mode),
// or ctx ends. It does not wait for job-spec readiness — that is per job.
func (r *Runtime) AwaitWorkers(ctx context.Context, n int) error {
	if r.reg == nil {
		return fmt.Errorf("sched: AwaitWorkers requires master mode (Config.ListenAddr)")
	}
	return r.reg.awaitWorkers(ctx, n)
}

// allWorkerIDs lists every worker the master can address: the static set in
// in-process deployments, the registered set in master mode.
func (r *Runtime) allWorkerIDs() []int {
	if r.reg != nil {
		return r.reg.workerIDs()
	}
	ids := make([]int, len(r.workers))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Close shuts the runtime down. It must not be called concurrently with Run.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for _, id := range r.allWorkerIDs() {
		r.master.Send(rpc.NodeID(id), rpc.Envelope{Kind: kShutdown})
	}
	for _, w := range r.workers {
		// Close the transport before waiting on the router: a worker whose
		// connectivity was severed never receives the shutdown message, so
		// only the transport close can end its Recv loop.
		w.tr.Close()
		w.stop()
	}
	r.master.Close()
	r.routerWg.Wait()
}

func (r *Runtime) currentRun() *jobRun {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.run
}

// runFor implements runProvider for in-process workers: the published run,
// when the message matches it.
func (r *Runtime) runFor(m stepStartMsg) *jobRun {
	run := r.currentRun()
	if run == nil || run.job != m.Job || run.attempt != m.Attempt || m.Step >= len(run.steps) {
		return nil
	}
	return run
}

// handleControl implements runProvider: in-process workers receive no
// registration or job-spec traffic.
func (r *Runtime) handleControl(w *worker, env rpc.Envelope) {}

// nextJobID reserves a job sequence number, or reports the runtime closed.
func (r *Runtime) nextJobID() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("sched: runtime closed")
	}
	r.jobSeq++
	return r.jobSeq, nil
}

// Run executes one job: the workflow is split into fractal steps around its
// synchronization points (Algorithm 2) and each effectful step is executed
// from scratch across all workers.
//
// Run honours ctx end to end: cancellation (or a deadline, or the per-step
// Config.StepTimeout) is propagated to every worker, execution cores
// observe it at their next DFS iteration, and the step drains cleanly — no
// goroutines outlive it and the runtime stays usable for subsequent jobs.
// A cancelled Run returns a non-nil partial Result whose last StepReport is
// marked Cancelled, together with an error wrapping ctx.Err() (or
// context.DeadlineExceeded for a step timeout). A nil ctx is treated as
// context.Background().
//
// An unreachable or silent worker fails the step attempt with a
// *WorkerLostError instead of blocking in quiescence polling. With
// Config.StepRetries at its zero default that fails the job; otherwise the
// step is retried: steps execute from scratch (Algorithm 2), so the master
// discards the attempt's partials, excludes the lost worker for the rest of
// the job (unless no worker would remain, in which case all are readmitted),
// and re-executes the step over the survivors, which re-partition the root
// domain. Exactly one attempt's aggregations are ever committed — attempt
// tagging keeps a failed attempt's late partials out — so retried results
// are bit-identical to fault-free runs. When the budget runs out the job
// fails with a *RetryExhaustedError wrapping the last loss.
func (r *Runtime) Run(ctx context.Context, job Job) (*Result, error) {
	if r.reg != nil {
		return nil, NotShippable("a closure-composed workflow (use a registered app through RunSpec)")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if job.Graph == nil {
		return nil, fmt.Errorf("sched: job has no graph")
	}
	if (job.Kind == subgraph.PatternInduced) != (job.Plan != nil) {
		return nil, fmt.Errorf("sched: plan must be set exactly for pattern-induced jobs")
	}
	if job.Custom != nil && job.Kind != subgraph.VertexInduced {
		return nil, fmt.Errorf("sched: custom enumerators require a vertex-induced job")
	}
	if err := checkShippable(job.Workflow); err != nil {
		return nil, err
	}
	jobID, err := r.nextJobID()
	if err != nil {
		return nil, err
	}
	return r.runJob(ctx, jobID, job)
}

// checkShippable refuses a workflow that aggregates into a store with no wire
// form (*agg.UnsupportedShapeError). Every step ends by shipping its
// partials, so such a job can only fail; refusing it here fails it before
// step 0 enumerates anything instead of after.
func checkShippable(wf step.Workflow) error {
	for _, p := range wf {
		if p.Kind != step.Aggregate {
			continue
		}
		if err := p.Agg.Proto.Shippable(); err != nil {
			return fmt.Errorf("sched: aggregation %q: %w", p.Agg.Name, err)
		}
	}
	return nil
}

// runJob executes a validated job under the given ID: the step retry loop
// shared by Run (in-process) and RunSpec (master mode). The caller has
// already distributed the job to the participants in master mode.
func (r *Runtime) runJob(ctx context.Context, jobID int, job Job) (*Result, error) {
	env := job.Env
	if env == nil {
		env = agg.NewRegistry()
	}
	pre := map[string]bool{}
	for _, n := range env.Names() {
		pre[n] = true
	}
	steps, err := step.Split(job.Workflow, pre)
	if err != nil {
		return nil, err
	}
	for i, s := range steps {
		// A step that visits or aggregates but never extends has nothing to
		// enumerate: the DFS engine assumes at least one extension level per
		// executed step (effect-free depth-0 steps are skipped below).
		if !r.effectFree(s) && s.Depth() == 0 {
			return nil, fmt.Errorf("sched: step %d (%s) has output primitives but no extension; add Expand(n) before them",
				i, step.Workflow(s.Primitives))
		}
	}

	var tracer *metrics.Tracer
	if r.cfg.Trace {
		tracer = metrics.NewTracer(r.cfg.TraceCapacity)
	}
	preStats := r.transportStats()
	res := &Result{Aggregations: env}
	start := time.Now()
	var retries, workersLost int
	// The report is assembled on every exit path — cancelled and failed
	// runs keep their partial steps, traffic deltas, and trace journal.
	defer func() {
		res.Report = r.buildReport(res, tracer, preStats, retries, workersLost)
	}()
	// Workers lost during this job are excluded from subsequent attempts
	// (and steps): a worker that timed out once is more likely dead than
	// slow, and readmitting it would spend the whole retry budget
	// rediscovering that. In master mode the ready set underneath is
	// dynamic: a worker that registers (and acks the spec) mid-job enters at
	// the next attempt boundary.
	excluded := map[int]bool{}
	// envWire accumulates the encoded aggregations committed by this job's
	// completed steps (master mode only), shipped with every step start.
	var envWire []envEntry
	for i, s := range steps {
		rep := StepReport{Index: i, Workflow: step.Workflow(s.Primitives).String()}
		if r.effectFree(s) {
			rep.Skipped = true
			res.Steps = append(res.Steps, rep)
			continue
		}
		if err := ctx.Err(); err != nil {
			res.Wall = time.Since(start)
			return res, fmt.Errorf("sched: step %d: %w", i, err)
		}
		stepStart := time.Now()
		var run *jobRun
		var stepErr error
		attempt := 0
		for {
			parts := r.participantsFor(jobID, excluded)
			if len(parts) == 0 {
				// Every worker has been lost at some point. Readmit them
				// all: the remaining budget is better spent probing for a
				// recovered transport than failing outright.
				clear(excluded)
				parts = r.participantsFor(jobID, excluded)
			}
			if len(parts) == 0 {
				// Master mode with no spec-ready worker left at all: nothing
				// can execute the step, and declaring quiescence over an
				// empty participant set would silently commit empty results.
				stepErr = fmt.Errorf("no ready workers")
				break
			}
			run = r.newAttempt(jobID, attempt, parts, job, steps, env, tracer)
			run.envWire = envWire
			r.mu.Lock()
			r.run = run
			r.mu.Unlock()

			stepCtx := ctx
			var cancel context.CancelFunc
			if r.cfg.StepTimeout > 0 {
				stepCtx, cancel = context.WithTimeout(ctx, r.cfg.StepTimeout)
			}
			stepErr = r.executeStep(stepCtx, run, i, s)
			if cancel != nil {
				cancel()
			}
			r.mu.Lock()
			r.run = nil
			r.mu.Unlock()
			if stepErr == nil {
				break
			}
			var lost *WorkerLostError
			if !errors.As(stepErr, &lost) {
				break // cancellation, deadline, aggregation failure: not retryable
			}
			workersLost++
			if tracer != nil {
				tracer.Emit(metrics.TraceEvent{
					Kind: metrics.TraceWorkerLost, Step: i,
					Worker: lost.Worker, Core: -1,
				})
			}
			if lost.Worker >= 0 {
				excluded[lost.Worker] = true
			}
			if attempt >= r.cfg.StepRetries {
				if r.cfg.StepRetries > 0 {
					stepErr = &RetryExhaustedError{Step: i, Attempts: attempt + 1, Last: lost}
				}
				break
			}
			if err := sleepCtx(ctx, r.cfg.RetryBackoff); err != nil {
				stepErr = err
				break
			}
			attempt++
			retries++
			if tracer != nil {
				tracer.Emit(metrics.TraceEvent{
					Kind: metrics.TraceStepRetry, Step: i,
					Worker: lost.Worker, Core: -1, Value: int64(attempt),
				})
			}
		}
		rep.Wall = time.Since(stepStart)
		rep.Attempts = attempt + 1
		if run != nil {
			fillReport(&rep, run)
		}
		if stepErr == nil && r.reg != nil {
			// Ship this step's committed aggregations with subsequent step
			// starts: remote workers reconstruct the environment from these
			// deltas (in-process workers share the registry by reference).
			var encErr error
			if envWire, encErr = appendEnvWire(envWire, env, s); encErr != nil {
				stepErr = encErr
			}
		}
		if stepErr != nil {
			// The step was abandoned: report the partial work done before
			// the cancellation (or worker loss) took effect. executeStep
			// has already waited (bounded) for drain acks, which carry the
			// workers' counters; a worker that never acked contributes
			// nothing, and the report is a lower bound.
			rep.Cancelled = true
			res.Steps = append(res.Steps, rep)
			res.Wall = time.Since(start)
			return res, fmt.Errorf("sched: step %d: %w", i, stepErr)
		}
		res.Steps = append(res.Steps, rep)
	}
	res.Wall = time.Since(start)
	return res, nil
}

// participantsFor returns the worker IDs taking part in the job's next step
// attempt, in rank order: the static worker set in-process, the job's
// spec-ready registered workers in master mode — re-queried on every attempt,
// which is what lets a worker that joined mid-job enter the next one.
func (r *Runtime) participantsFor(jobID int, excluded map[int]bool) []int {
	if r.reg != nil {
		return r.reg.readyWorkers(jobID, excluded)
	}
	parts := make([]int, 0, r.cfg.Workers)
	for i := 0; i < r.cfg.Workers; i++ {
		if !excluded[i] {
			parts = append(parts, i)
		}
	}
	return parts
}

// appendEnvWire folds the step's committed aggregations into the job's
// encoded environment delta, replacing superseded entries in place.
func appendEnvWire(envWire []envEntry, env *agg.Registry, s *step.Step) ([]envEntry, error) {
	for _, sp := range s.AggSpecs() {
		store, ok := env.Get(sp.Name)
		if !ok {
			continue
		}
		data, err := store.Encode()
		if err != nil {
			return envWire, fmt.Errorf("encoding environment delta %q: %w", sp.Name, err)
		}
		replaced := false
		for j := range envWire {
			if envWire[j].Name == sp.Name {
				envWire[j].Data = data
				replaced = true
				break
			}
		}
		if !replaced {
			envWire = append(envWire, envEntry{Name: sp.Name, Data: data})
		}
	}
	return envWire, nil
}

// newAttempt builds the fresh shared state for one execution attempt of a
// step.
func (r *Runtime) newAttempt(jobID, attempt int, parts []int, job Job, steps []*step.Step, env *agg.Registry, tracer *metrics.Tracer) *jobRun {
	total := len(parts) * r.cfg.CoresPerWorker
	return &jobRun{
		job:        jobID,
		attempt:    attempt,
		parts:      parts,
		totalCores: total,
		graph:      job.Graph,
		kind:       job.Kind,
		plan:       job.Plan,
		customs:    cloneCustom(job.Custom, total),
		steps:      steps,
		env:        env,
		blocks:     map[int]metrics.Snapshot{},
		tracer:     tracer,
	}
}

// cloneCustom clones a job's custom extender once per core of an attempt,
// serially and in core order, before any core starts. Clone may mutate the
// prototype (SamplingEnum derives each clone's seed from a counter), so it
// must not run on the cores' goroutines, and cloning in core order is what
// gives core i the same clone on every run.
func cloneCustom(proto subgraph.CustomExtender, cores int) []subgraph.CustomExtender {
	if proto == nil {
		return nil
	}
	clones := make([]subgraph.CustomExtender, cores)
	for i := range clones {
		clones[i] = proto.Clone()
	}
	return clones
}

// sleepCtx waits d or until ctx ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// recordCounters keeps the counter block a worker shipped for this attempt.
// The first block wins: a worker that already ended the step with an
// aggDoneMsg acks a later cancel of it with an empty block.
func (run *jobRun) recordCounters(worker int, c metrics.Snapshot) {
	if _, ok := run.blocks[worker]; !ok {
		run.blocks[worker] = c
	}
}

// counters sums the attempt's counter blocks in rank order, which puts
// CoreWork in global core order. A participant that shipped none (lost, or
// slower than the drain wait) counts as cores that did no work.
func (run *jobRun) counters() metrics.Snapshot {
	sum := metrics.Snapshot{AggMergeTimeNs: int64(run.mergeTime)}
	for _, wid := range run.parts {
		b := run.blocks[wid]
		if b.CoreWork == nil {
			b.CoreWork = make([]int64, run.totalCores/len(run.parts))
		}
		sum.Add(b)
	}
	return sum
}

// fillReport fills the step report from the final attempt's summed counters
// and quiescence journal (earlier attempts' were discarded with their
// partials).
func fillReport(rep *StepReport, run *jobRun) {
	m := run.counters()
	rep.Metrics = m
	rep.Balance = m.Balance()
	if rep.Wall > 0 {
		rep.Utilization = min(1, float64(m.BusyTimeNs)/(float64(rep.Wall)*float64(run.totalCores)))
	}
	rep.EC = m.ExtensionTests
	rep.Subgraphs = m.Subgraphs
	rep.StealsInternal, rep.StealsExternal = m.StealsInternal, m.StealsExternal
	rep.StealBytes = m.StealBytes
	rep.StealOverhead = m.StealOverhead()
	rep.PeakStateBytes = m.PeakStateBytes
	rep.AbandonedExts = m.AbandonedExts
	rep.AggMergeTime = time.Duration(m.AggMergeTimeNs)
	rep.AggShippedBytes = m.AggShippedBytes
	rep.Rounds = run.rounds
	rep.RoundsTotal = run.roundsTotal
}

// buildReport assembles the run-level observability record.
func (r *Runtime) buildReport(res *Result, tracer *metrics.Tracer, preStats TransportStats, retries, workersLost int) *RunReport {
	workers := r.cfg.Workers
	if r.reg != nil {
		workers = len(r.reg.workerIDs())
	}
	rep := &RunReport{
		Workers:        workers,
		CoresPerWorker: r.cfg.CoresPerWorker,
		WS:             r.cfg.WS.String(),
		Wall:           res.Wall,
		Steps:          res.Steps,
		Retries:        retries,
		WorkersLost:    workersLost,
		Transport:      r.transportStats().sub(preStats),
	}
	if tracer != nil {
		rep.Trace = tracer.Events()
		rep.TraceDropped = tracer.Dropped()
	}
	return rep
}

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

// executeStep drives one fractal step: broadcast start, poll for global
// quiescence, broadcast end, and merge the workers' aggregation partials.
// On any failure — context cancellation, deadline, or worker loss — the
// step is abandoned: the run's abort flag is flipped and a cancel message
// is broadcast so every reachable worker drains its cores and discards its
// partials.
func (r *Runtime) executeStep(ctx context.Context, run *jobRun, idx int, s *step.Step) (err error) {
	defer func() {
		if err != nil {
			r.broadcastCancel(run, idx)
		}
	}()
	if run.tracer != nil {
		run.tracer.Emit(metrics.TraceEvent{Kind: metrics.TraceStepStart, Step: idx, Worker: -1, Core: -1})
	}
	startBody := encode(stepStartMsg{Job: run.job, Step: idx, Attempt: run.attempt, Workers: run.parts, Env: run.envWire})
	for _, wid := range run.parts {
		if e := r.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kStepStart, Body: startBody}); e != nil {
			return &WorkerLostError{Worker: wid, Step: idx, Phase: "step-start", Err: e}
		}
	}
	if err := r.awaitQuiescence(ctx, run, idx); err != nil {
		return err
	}
	endBody := encode(stepEndMsg{Job: run.job, Step: idx, Attempt: run.attempt})
	for _, wid := range run.parts {
		if e := r.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kStepEnd, Body: endBody}); e != nil {
			return &WorkerLostError{Worker: wid, Step: idx, Phase: "step-end", Err: e}
		}
	}
	if err := r.collectAggregations(ctx, run, idx, s); err != nil {
		return err
	}
	if run.tracer != nil {
		run.tracer.Emit(metrics.TraceEvent{Kind: metrics.TraceStepEnd, Step: idx, Worker: -1, Core: -1})
	}
	return nil
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
func (r *Runtime) broadcastCancel(run *jobRun, idx int) {
	run.cancelled.Store(true)
	for _, w := range r.workers {
		w.interrupt(run.job, idx, run.attempt)
	}
	if run.tracer != nil {
		run.tracer.Emit(metrics.TraceEvent{Kind: metrics.TraceCancel, Step: idx, Worker: -1, Core: -1})
	}
	body := encode(cancelMsg{Job: run.job, Step: idx, Attempt: run.attempt})
	// Cancel goes to every worker, not just this attempt's participants: an
	// excluded worker may still be draining the failed attempt that got it
	// excluded.
	all := r.allWorkerIDs()
	for _, id := range all {
		r.master.Send(rpc.NodeID(id), rpc.Envelope{Kind: kCancel, Body: body})
	}
	acked := map[int]bool{}
	defer func() {
		if run.tracer != nil {
			run.tracer.Emit(metrics.TraceEvent{
				Kind: metrics.TraceDrain, Step: idx,
				Worker: -1, Core: -1, Value: int64(len(acked)),
			})
		}
	}()
	deadline := time.NewTimer(cancelDrainWait)
	defer deadline.Stop()
	for len(acked) < len(all) {
		select {
		case env, ok := <-r.inbox:
			if !ok {
				return
			}
			if env.Kind != kCancelAck {
				continue // stale status reports, agg data, …
			}
			var m cancelAckMsg
			if decode(env.Body, &m) != nil || m.Job != run.job || m.Step != idx || m.Attempt != run.attempt {
				continue
			}
			acked[m.Worker] = true
			run.recordCounters(m.Worker, m.Counters)
		case <-deadline.C:
			return
		}
	}
}

// quiescence detection: the step is complete when, over two consecutive
// status rounds, every participant reports that it is running the attempt
// with zero active cores, the global request/response counters balance (no
// stolen work in flight), and the monotone processed counter has not
// advanced. Cores follow the discipline of marking themselves active before
// acquiring work, which makes "active == 0" imply "no core holds unprocessed
// work".
//
// Beyond the silent-worker timeout, two watchdogs catch losses that silence
// nothing: a participant whose stepStartMsg was lost keeps answering pings
// with Running=false (without the Running requirement the master would
// declare quiescence with that worker's share of the root domain never
// enumerated), and lost steal traffic leaves the request/response counters
// imbalanced for good. Either state is indistinguishable from a slow step at
// any instant — its persistence beyond WorkerTimeout with no progress is
// what convicts it.
func (r *Runtime) awaitQuiescence(ctx context.Context, run *jobRun, idx int) error {
	type snap struct {
		ok        bool
		processed int64
	}
	var prev snap
	round := int64(0)
	reports := make(map[int]statusReportMsg, len(run.parts))
	ticker := time.NewTicker(r.cfg.StatusInterval)
	defer ticker.Stop()
	// lost bounds how long a status round may wait on a silent worker; it is
	// re-armed every round, so a healthy run never trips it.
	lost := time.NewTimer(r.cfg.WorkerTimeout)
	defer lost.Stop()
	var notRunningSince, imbalancedSince time.Time
	var imbalancedProcessed int64

	for {
		round++
		roundStart := time.Now()
		ping := encode(statusPingMsg{Job: run.job, Step: idx, Attempt: run.attempt, Round: round})
		for _, wid := range run.parts {
			if err := r.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kStatusPing, Body: ping}); err != nil {
				return &WorkerLostError{Worker: wid, Step: idx, Phase: "quiescence", Err: err}
			}
		}
		clear(reports)
		lost.Reset(r.cfg.WorkerTimeout)
		for len(reports) < len(run.parts) {
			select {
			case env, ok := <-r.inbox:
				if !ok {
					return fmt.Errorf("master transport closed")
				}
				if env.Kind != kStatusReport {
					continue // stale agg data etc.
				}
				var m statusReportMsg
				if decode(env.Body, &m) != nil {
					continue
				}
				if m.Job != run.job || m.Step != idx || m.Attempt != run.attempt || m.Round != round {
					continue
				}
				reports[m.Worker] = m
			case <-ctx.Done():
				return ctx.Err()
			case <-lost.C:
				return &WorkerLostError{Worker: missingWorker(reports, run.parts), Step: idx, Phase: "quiescence"}
			}
		}
		var cur snap
		cur.ok = true
		notRunning := -1
		var active, reqSent, respRecv, reqRecv, respSent int64
		for _, m := range reports {
			if !m.Running {
				cur.ok = false
				notRunning = m.Worker
			}
			if m.Active != 0 {
				cur.ok = false
			}
			active += m.Active
			cur.processed += m.Processed
			reqSent += m.ReqSent
			respRecv += m.RespRecv
			reqRecv += m.ReqRecv
			respSent += m.RespSent
		}
		imbalanced := reqSent != respRecv || reqRecv != respSent
		if imbalanced {
			cur.ok = false
		}
		run.recordRound(idx, QuiescenceRound{
			Round: round, Wait: time.Since(roundStart),
			Active: active, Processed: cur.processed,
		})
		if cur.ok && prev.ok && cur.processed == prev.processed {
			return nil
		}
		now := time.Now()
		if notRunning >= 0 {
			if notRunningSince.IsZero() {
				notRunningSince = now
			} else if now.Sub(notRunningSince) > r.cfg.WorkerTimeout {
				// The participant is reachable but never received its step
				// start: its partition of the root domain is not being
				// enumerated and never will be.
				return &WorkerLostError{Worker: notRunning, Step: idx, Phase: "step-start"}
			}
		} else {
			notRunningSince = time.Time{}
		}
		if imbalanced && (imbalancedSince.IsZero() || cur.processed != imbalancedProcessed) {
			imbalancedSince, imbalancedProcessed = now, cur.processed
		} else if !imbalanced {
			imbalancedSince = time.Time{}
		} else if now.Sub(imbalancedSince) > r.cfg.WorkerTimeout {
			// Counters stayed imbalanced with no progress for a full worker
			// timeout: a steal request or response was lost in flight, and
			// any work it carried with it. No single worker can be blamed
			// (Worker -1), so a retry re-executes over the same set.
			return &WorkerLostError{Worker: -1, Step: idx, Phase: "steal-balance"}
		}
		prev = cur
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// missingWorker returns the lowest-ranked participant absent from reports.
func missingWorker(reports map[int]statusReportMsg, parts []int) int {
	for _, wid := range parts {
		if _, ok := reports[wid]; !ok {
			return wid
		}
	}
	return -1
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
func (r *Runtime) collectAggregations(ctx context.Context, run *jobRun, idx int, s *step.Step) error {
	specs := s.AggSpecs()
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
		case env, ok := <-r.inbox:
			if !ok {
				return fmt.Errorf("master transport closed")
			}
			lost.Reset(r.cfg.WorkerTimeout)
			switch env.Kind {
			case kAggData:
				var m aggDataMsg
				// The attempt check is what makes retries exactly-once: a
				// frame shipped by a failed attempt (still queued when the
				// master gave up on it) must never fold into the retry's
				// result — dropping it here is safe precisely because the
				// retry re-enumerates everything the failed attempt did.
				if decode(env.Body, &m) != nil || m.Job != run.job || m.Step != idx || m.Attempt != run.attempt {
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
				if decode(env.Body, &m) != nil || m.Job != run.job || m.Step != idx || m.Attempt != run.attempt {
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
			return &WorkerLostError{Worker: missing, Step: idx, Phase: "aggregation"}
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
