package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Reduce, when set, is the Section 4.3 reduction of Graph that the cores
	// enumerate. It is applied once per job, before step 0, where the job is
	// enumerated: by runJob on an in-process runtime and by a worker process
	// when it installs the job — never per step attempt, and never on a
	// master, whose cores read no graph. It must be deterministic, so that
	// every worker enumerates the same reduced graph.
	Reduce func(*graph.Graph) *graph.Graph
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
	// key names the attempt (its Attempt is 0 on the first try); every
	// step-scoped message carries it, so both sides can discard leftovers of
	// abandoned attempts.
	key  attemptKey
	step *step.Step
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
	env     *agg.Registry
	// blocks holds the counter block each worker shipped with the message
	// that ended its part of the attempt (aggDoneMsg, at a step end or a
	// cancel), by worker ID; mergeTime is the master's own fold
	// time. Master-only, like rounds: workers count into their cores' blocks
	// and never see these.
	blocks    map[int]metrics.Snapshot
	mergeTime time.Duration
	// tracer is the run's trace journal (nil when tracing is disabled).
	tracer *metrics.Tracer
	// rounds journals the master's liveness probes for the attempt
	// (master-only).
	rounds []QuiescenceRound
	// cancelled is the abort flag: the master flips it, then interrupts the
	// in-process workers' cores directly, then broadcasts cancel messages. On
	// an oversubscribed machine compute-bound cores starve the transport
	// goroutines, so the interrupt is what actually bounds cancellation
	// latency; the messages then serialize the stop at each worker's router
	// and carry the answers back. A worker installing a step of this run reads
	// the flag after publishing the step, so neither order loses the stop.
	cancelled atomic.Bool
}

// Runtime is the master plus its workers. Create with New, run any number
// of jobs with Run (in-process deployments) or RunSpec (any deployment),
// and release with Close.
//
// A runtime runs one job at a time (runJob queues the others), so a job's
// callbacks (a Visit) must not submit a job to it: it would wait forever.
//
// With Config.ListenAddr set the runtime is a distributed master: it spawns
// no in-process workers and instead serves registrations from fractal-worker
// processes (ServeWorker) on its TCP listener. The worker set is dynamic —
// the registry feeds each step attempt's participant list, so a worker that
// registers mid-job joins at the next attempt boundary, installing the job
// from the step start that names it.
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
	// It is DropWhenFull: see router.
	inbox    *rpc.Mailbox
	routerWg sync.WaitGroup
	turn     chan struct{} // held by the running job (runJob)

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
	rt := &Runtime{cfg: cfg, inbox: rpc.NewMailbox(rpc.DropWhenFull), turn: make(chan struct{}, 1)}
	if listen != "" {
		// Master mode: a TCP listener and a registry instead of in-process
		// workers.
		node, err := rpc.NewTCPNode(rpc.Master, listen)
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
	nw := rpc.NewLoopbackNetwork(ids)
	if cfg.FaultInjector != nil {
		for id, tr := range nw {
			nw[id] = rpc.WithFaultInjector(tr, cfg.FaultInjector)
		}
	}
	rt.master = nw[rpc.Master]
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker(i, cfg, rt.runFor, nw[rpc.NodeID(i)])
		rt.workers = append(rt.workers, w)
		w.start()
	}
	rt.routerWg.Add(1)
	go rt.router()
	return rt, nil
}

// router owns the master transport's receive channel: registration traffic
// goes to the registry (it must be served even while no job is running, and
// while the run loop is blocked in a quiescence wait), everything else to the
// inbox the run loop reads. The run loop drains the inbox continuously during
// a step; between steps it only collects stragglers (late acks and partials
// of abandoned attempts). An inbox at rpc.MailboxCap drops the message —
// equivalent to a network loss, which every consumer already tolerates
// through attempt tagging and timeouts.
func (r *Runtime) router() {
	defer r.routerWg.Done()
	defer r.inbox.Close()
	for env := range r.master.Recv() {
		switch env.Kind {
		case kRegister:
			if r.reg != nil {
				r.reg.handleRegister(env)
			}
		default:
			_ = r.inbox.Put(env) // ErrFull drops it; ErrClosed cannot occur before this loop ends
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
// or ctx ends.
func (r *Runtime) AwaitWorkers(ctx context.Context, n int) error {
	if r.reg == nil {
		return fmt.Errorf("sched: AwaitWorkers requires master mode (Config.ListenAddr)")
	}
	return r.reg.awaitWorkers(ctx, n)
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
	for _, id := range r.participantsFor(nil) {
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
	for range r.inbox.Recv() { // stragglers nobody reads: release the inbox
	}
}

func (r *Runtime) currentRun() *jobRun {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.run
}

// runFor resolves an in-process worker's step start: the published run,
// when the message names it; any other step start is stale.
func (r *Runtime) runFor(m stepStartMsg) (*jobRun, error) {
	if run := r.currentRun(); run != nil && run.key == m.attemptKey {
		return run, nil
	}
	return nil, nil
}

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
// Run honours ctx end to end: cancellation (or a deadline) is propagated to
// every worker, execution cores observe it at their next DFS iteration, and
// the step drains cleanly — no goroutines outlive it and the runtime stays
// usable for subsequent jobs. A cancelled Run returns a non-nil partial
// Result whose last StepReport is marked Cancelled, together with an error
// wrapping ctx.Err(). A nil ctx is treated as context.Background().
//
// Run first waits for a running job to return; if ctx ends during that wait
// it returns a nil Result and an error wrapping ctx.Err().
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
	return r.runJob(ctx, job, nil)
}

// validate refuses a job that cannot run: one with no graph, a plan that
// disagrees with its kind, a custom extender on a kind other than
// vertex-induced — any of which would panic a core — or an aggregation
// with no wire form (*agg.UnsupportedShapeError): every step ends by
// shipping its partials, so such a job could only fail, and refusing it
// here fails it before step 0 enumerates anything. The master checks every
// job before it ships, and a worker every job it installs.
func (job Job) validate() error {
	if job.Graph == nil {
		return fmt.Errorf("sched: job has no graph")
	}
	if (job.Kind == subgraph.PatternInduced) != (job.Plan != nil) {
		return fmt.Errorf("sched: plan must be set exactly for pattern-induced jobs")
	}
	if job.Custom != nil && job.Kind != subgraph.VertexInduced {
		return fmt.Errorf("sched: custom enumerators require a vertex-induced job")
	}
	for _, p := range job.Workflow {
		if p.Kind != step.Aggregate || p.Agg == nil {
			continue // step.Split refuses an aggregate with no specification
		}
		if err := p.Agg.Proto.Shippable(); err != nil {
			return fmt.Errorf("sched: aggregation %q: %w", p.Agg.Name, err)
		}
	}
	return nil
}

// runJob validates a job, splits it into steps, waits for the running job to
// return and executes the steps: the one path of Run and RunSpec in every
// deployment. spec is set exactly in master mode, where the job ships to the
// workers as that spec inside every step start — with the names of its
// environment, so both sides split the same steps — and a step attempt
// with no registered worker waits, at most WorkerTimeout, for one. In
// process the job's
// reduction (Job.Reduce) is applied here, once, when the job has its turn.
func (r *Runtime) runJob(ctx context.Context, job Job, spec *JobSpec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := job.validate(); err != nil {
		return nil, err
	}
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
	// An uncontended job takes its turn whatever its ctx, so one whose ctx
	// has ended still returns a partial Result from step 0.
	select {
	case r.turn <- struct{}{}:
	default:
		select {
		case r.turn <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("sched: waiting for the running job: %w", ctx.Err())
		}
	}
	defer func() { <-r.turn }()
	jobID, err := r.nextJobID()
	if err != nil {
		return nil, err
	}
	if r.reg == nil && job.Reduce != nil {
		job.Graph = job.Reduce(job.Graph)
	}
	// ship is what the job's step starts carry besides their key and
	// participants: nothing in process.
	var ship stepStartMsg
	if spec != nil {
		ship.Spec = specToWire(*spec, env.Names())
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
	// rediscovering that. In master mode the registered set underneath is
	// dynamic: a worker that registers mid-job enters at the next attempt
	// boundary, and one the master could not send to leaves it for good.
	excluded := map[int]bool{}
	for i, s := range steps {
		rep := StepReport{Index: i, Workflow: step.Workflow(s.Primitives).String()}
		if r.effectFree(s) {
			rep.Skipped = true
			res.Steps = append(res.Steps, rep)
			continue
		}
		ship.Env, err = r.stepReads(env, s)
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			res.Wall = time.Since(start)
			return res, fmt.Errorf("sched: step %d: %w", i, err)
		}
		stepStart := time.Now()
		var run *jobRun
		var stepErr error
		// attempt numbers the step's executions; charged counts those
		// re-run against StepRetries.
		attempt, charged := 0, 0
		for {
			parts := r.participantsFor(excluded)
			if len(parts) == 0 {
				// Every worker has been lost at some point. Readmit them
				// all: the remaining budget is better spent probing for a
				// recovered transport than failing outright.
				clear(excluded)
				parts = r.participantsFor(excluded)
			}
			if len(parts) == 0 {
				// A master with no registered worker (before step 0, or
				// after dropping the last one): nothing can execute the
				// step, and declaring quiescence over an empty participant
				// set would silently commit empty results. Wait for one.
				if stepErr = r.awaitRegistrant(ctx); stepErr != nil {
					break
				}
				parts = r.participantsFor(excluded)
			}
			run = newJobRun(attemptKey{jobID, i, attempt}, parts, r.cfg.CoresPerWorker, job, s, env, tracer)
			r.mu.Lock()
			r.run = run
			r.mu.Unlock()

			stepErr = r.executeStep(ctx, run, ship)
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
			// A worker the master could not send to is gone, maybe since
			// before the job, and executeStep has forgotten it: re-run over
			// the rest without charging StepRetries. Each such re-run drops
			// a registered worker, so there are boundedly many.
			if !r.unreachable(lost) {
				if charged == r.cfg.StepRetries {
					if r.cfg.StepRetries > 0 {
						stepErr = &RetryExhaustedError{Step: i, Attempts: attempt + 1, Last: lost}
					}
					break
				}
				charged++
			}
			if err := sleepCtx(ctx, r.cfg.retryBackoff); err != nil {
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

// awaitRegistrant waits, at most WorkerTimeout, for a worker to register
// with a master that has none.
func (r *Runtime) awaitRegistrant(ctx context.Context) error {
	wctx, cancel := context.WithTimeout(ctx, r.cfg.WorkerTimeout)
	defer cancel()
	if err := r.reg.awaitWorkers(wctx, 1); err != nil {
		if ctx.Err() != nil {
			return err
		}
		return fmt.Errorf("sched: no worker registered within %v", r.cfg.WorkerTimeout)
	}
	return nil
}

// participantsFor returns the worker IDs taking part in the job's next step
// attempt, in rank order: the static worker set in-process, the registered
// workers in master mode — re-queried on every attempt, which is what lets
// a worker that joined mid-job enter the next one. Both less the excluded;
// with none excluded, every worker the master can address.
func (r *Runtime) participantsFor(excluded map[int]bool) []int {
	if r.reg != nil {
		return r.reg.workerIDs(excluded)
	}
	parts := make([]int, 0, r.cfg.Workers)
	for i := 0; i < r.cfg.Workers; i++ {
		if !excluded[i] {
			parts = append(parts, i)
		}
	}
	return parts
}

// named lists an attempt's participants as its step start names them: in
// master mode with the addresses they registered, in process with none.
func (r *Runtime) named(parts []int) []peerAddr {
	out := make([]peerAddr, len(parts))
	for i, wid := range parts {
		out[i].Worker = wid
	}
	if r.reg != nil {
		r.reg.address(out)
	}
	return out
}

// stepReads encodes, once per step, the environment aggregations its
// AggFilter primitives read — from an earlier job or an earlier step of this
// one — for the step starts of a master's workers. In-process workers share
// env by reference: nothing is encoded for them.
func (r *Runtime) stepReads(env *agg.Registry, s *step.Step) ([]envEntry, error) {
	if r.reg == nil {
		return nil, nil
	}
	var reads []envEntry
	for _, p := range s.Primitives {
		if p.Kind != step.AggFilter || slices.ContainsFunc(reads, func(e envEntry) bool { return e.Name == p.AggName }) {
			continue
		}
		// step.Split admits a filter only on a name env held before the job
		// or an earlier step committed to it.
		store, _ := env.Get(p.AggName)
		data, err := store.Encode()
		if err != nil {
			return nil, fmt.Errorf("encoding environment %q: %w", p.AggName, err)
		}
		reads = append(reads, envEntry{Name: p.AggName, Data: data})
	}
	return reads, nil
}

// newJobRun builds the fresh shared state of attempt key, executing step s
// of job over the participants parts with coresPerWorker cores each: the
// master's for its in-process workers (with the run's tracer) and a worker
// process's own (with none, and env decoded from the step start). Each
// attempt gets fresh custom-extender clones and a fresh abort flag.
func newJobRun(key attemptKey, parts []int, coresPerWorker int, job Job, s *step.Step, env *agg.Registry, tracer *metrics.Tracer) *jobRun {
	total := len(parts) * coresPerWorker
	return &jobRun{
		key:        key,
		step:       s,
		parts:      parts,
		totalCores: total,
		graph:      job.Graph,
		kind:       job.Kind,
		plan:       job.Plan,
		customs:    cloneCustom(job.Custom, total),
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
// The first block wins: a worker that already ended the step answers a
// later cancel of it with an empty block.
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
		workers = len(r.reg.workerIDs(nil))
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
