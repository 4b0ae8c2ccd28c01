// The worker-process half of distributed deployments: ServeWorker connects
// to a master, registers, and serves steps until shut down. Where in-process
// workers resolve step starts against the Runtime's published run (shared
// address space), a remote worker installs its one job from the spec the
// step starts carry — graph loaded from its path, workflow rebuilt by the
// registered app — and synthesizes a fresh jobRun per step attempt, its
// environment decoded from the aggregations the step start carries. Both
// paths feed the identical worker/core machinery, which is what keeps
// distributed results bit-identical.
package sched

import (
	"context"
	"fmt"
	"time"

	"fractal/internal/agg"
	"fractal/internal/rpc"
	"fractal/internal/step"
)

// ServeWorker runs a worker process: bind a listener, register with the
// master at masterAddr, and serve steps until the master shuts the worker
// down (nil return), the transport fails, or ctx ends (ctx.Err return).
// The master dictates the execution configuration (cores, work stealing,
// timeouts) in its registration reply.
func ServeWorker(ctx context.Context, masterAddr string, opts ServeWorkerOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w, err := joinMaster(ctx, masterAddr, opts)
	if err != nil {
		return err
	}
	defer w.tr.Close()
	// Closing the transport ends the worker's receive loop; its current step
	// (if any) is aborted and drained on the way out.
	stop := context.AfterFunc(ctx, func() { w.tr.Close() })
	w.stop()
	stop()
	return ctx.Err()
}

// joinMaster binds the worker's listener, registers with the master at
// masterAddr and starts a worker under the configuration the master's reply
// dictates. The caller owns the worker: it closes w.tr to shut it down.
func joinMaster(ctx context.Context, masterAddr string, opts ServeWorkerOptions) (_ *worker, err error) {
	if masterAddr == "" {
		return nil, fmt.Errorf("sched: ServeWorker requires a master address")
	}
	listen := opts.ListenAddr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	node, err := rpc.NewTCPNode(rpc.Unregistered, listen)
	if err != nil {
		return nil, err
	}
	tr := rpc.WithFaultInjector(node, opts.FaultInjector)
	defer func() {
		if err != nil {
			tr.Close()
		}
	}()
	node.AddPeer(rpc.Master, masterAddr)
	addr, err := node.AdvertiseAddr(rpc.Master) // dialable by peers, unlike a wildcard
	if err == nil {
		err = tr.Send(rpc.Master, rpc.Envelope{Kind: kRegister, Body: encode(registerMsg{Addr: addr})})
	}
	if err != nil {
		return nil, fmt.Errorf("sched: registering with master %s: %w", masterAddr, err)
	}
	var wel welcomeMsg
	welTimer := time.NewTimer(registerReplyTimeout)
	defer welTimer.Stop()
wait:
	for {
		select {
		case env, ok := <-tr.Recv():
			if !ok {
				return nil, fmt.Errorf("sched: transport closed before registration completed")
			}
			if env.Kind != kWelcome {
				continue // the master sends nothing before the welcome
			}
			if err := decode(env.Body, &wel); err != nil {
				return nil, fmt.Errorf("sched: malformed registration reply: %w", err)
			}
			break wait
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-welTimer.C:
			return nil, fmt.Errorf("sched: no registration reply from master %s within %v", masterAddr, registerReplyTimeout)
		}
	}
	node.SetSelf(rpc.NodeID(wel.Worker))
	cfg := Config{
		CoresPerWorker: wel.CoresPerWorker,
		WS:             WorkStealing(wel.WS),
		WorkerTimeout:  time.Duration(wel.WorkerTimeout),
	}.withDefaults()
	w := newWorker(wel.Worker, cfg, (&remoteHost{cfg: cfg, node: node}).runFor, tr)
	w.start()
	return w, nil
}

// remoteJob is a job installed from a spec and split into steps: what each
// step start's jobRun is built from.
type remoteJob struct {
	job   Job
	steps []*step.Step
}

// remoteHost resolves a worker process's step starts (its runFor is the
// worker's). It is only used on the worker's router goroutine (or before it
// starts), so it has no lock.
type remoteHost struct {
	cfg    Config
	node   *rpc.TCPNode
	graphs graphCache

	newest int        // the newest job id a step start named
	job    *remoteJob // that job; nil when it failed to install
	failed error      // why it failed to install
}

// runFor builds the attempt's jobRun with newJobRun, as the master does for
// in-process workers, with an environment of the aggregations the step
// start carries. The first step start of a job newer than the current one
// installs it; a step start of an older job is ignored. Every participant
// the step start names enters the node's address book before the cores
// start, so a peer that registered since the last step start is reachable
// by the time this worker's cores steal from it or answer it.
func (h *remoteHost) runFor(m stepStartMsg) (*jobRun, error) {
	if m.Job < h.newest {
		return nil, nil
	}
	if m.Job > h.newest {
		// One job at a time: the current job goes before the new one is
		// built, so two FSM levels' graphs are never held at once.
		h.newest, h.job = m.Job, nil
		h.failed = h.install(m.Spec)
	}
	rj := h.job
	if rj == nil {
		return nil, h.failed
	}
	if m.Step < 0 || m.Step >= len(rj.steps) {
		return nil, fmt.Errorf("sched: job %d has no step %d", m.Job, m.Step)
	}
	env, err := decodeReads(m.Env)
	if err != nil {
		return nil, err
	}
	parts := make([]int, len(m.Workers))
	for i, p := range m.Workers {
		parts[i] = p.Worker
		if p.Addr != "" {
			h.node.AddPeer(rpc.NodeID(p.Worker), p.Addr)
		}
	}
	return newJobRun(m.attemptKey, parts, h.cfg.CoresPerWorker, rj.job, rj.steps[m.Step], env, nil), nil
}

// decodeReads rebuilds the environment a step start carries.
func decodeReads(entries []envEntry) (*agg.Registry, error) {
	env := agg.NewRegistry()
	for _, e := range entries {
		store, err := agg.Decode(e.Data)
		if err != nil {
			return nil, fmt.Errorf("sched: decoding environment %q: %w", e.Name, err)
		}
		env.Put(e.Name, store)
	}
	return env, nil
}

// install materializes a job from its spec as the current job: load the
// graph, rebuild the workflow through the registered app, and split it into
// steps against the names of the master's environment — the same
// deterministic pipeline the master runs, so both sides hold identical step
// lists. Then it applies the job's reduction (Job.Reduce), which the master
// does not: this worker's cores enumerate the reduced graph in every step.
func (h *remoteHost) install(m wireSpec) error {
	spec := wireToSpec(m)
	builder, err := builderFor(spec.App)
	if err != nil {
		return err
	}
	g, err := h.graphs.load(spec.Graph)
	if err != nil {
		return fmt.Errorf("loading graph %q: %w", spec.Graph, err)
	}
	job, err := builder.Build(spec, g)
	if err != nil {
		return fmt.Errorf("building %q: %w", spec.App, err)
	}
	if err := job.validate(); err != nil {
		return err
	}
	pre := map[string]bool{}
	for _, n := range m.Env {
		pre[n] = true
	}
	steps, err := step.Split(job.Workflow, pre)
	if err != nil {
		return err
	}
	if job.Reduce != nil {
		job.Graph = job.Reduce(job.Graph)
	}
	h.job = &remoteJob{job: job, steps: steps}
	return nil
}
