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
	// rounds journals the master's ping waves for the attempt (master-only).
	rounds []QuiescenceRound
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
// *WorkerLostError instead of blocking the step's end. With
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
		tracer = metrics.NewTracer(metrics.DefaultTraceCapacity)
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
	rep.RoundsTotal = len(run.rounds)
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
