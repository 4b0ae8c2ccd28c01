// The worker-process half of distributed deployments: ServeWorker connects
// to a master, registers, and serves steps until shut down. Where in-process
// workers resolve step starts against the Runtime's published run (shared
// address space), a remote worker materializes jobs from specs received over
// the wire — graph loaded from its path, workflow rebuilt by the registered
// app, environment decoded from shipped entries — and synthesizes a fresh
// jobRun per step attempt. Both paths feed the identical worker/core
// machinery, which is what keeps distributed results bit-identical.
package sched

import (
	"context"
	"fmt"
	"sync"
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
	if masterAddr == "" {
		return fmt.Errorf("sched: ServeWorker requires a master address")
	}
	listen := opts.ListenAddr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	node, err := rpc.NewTCPNode(rpc.Unregistered, listen, rpc.DefaultTCPOptions())
	if err != nil {
		return err
	}
	tr := rpc.WithFaultInjector(node, opts.FaultInjector)
	defer tr.Close()
	node.AddPeer(rpc.Master, masterAddr)
	reg := registerMsg{Addr: node.Addr()}
	if err := tr.Send(rpc.Master, rpc.Envelope{Kind: kRegister, Body: encode(reg)}); err != nil {
		return fmt.Errorf("sched: registering with master %s: %w", masterAddr, err)
	}
	var wel welcomeMsg
	welTimer := time.NewTimer(registerReplyTimeout)
	defer welTimer.Stop()
	// Buffer everything that arrives before (or alongside) the welcome: the
	// master pushes active job specs immediately after it, and they must not
	// be lost to the handshake.
	var pending []rpc.Envelope
wait:
	for {
		select {
		case env, ok := <-tr.Recv():
			if !ok {
				return fmt.Errorf("sched: transport closed before registration completed")
			}
			if env.Kind != kWelcome {
				pending = append(pending, env)
				continue
			}
			if err := decode(env.Body, &wel); err != nil {
				return fmt.Errorf("sched: malformed registration reply: %w", err)
			}
			break wait
		case <-ctx.Done():
			return ctx.Err()
		case <-welTimer.C:
			return fmt.Errorf("sched: no registration reply from master %s within %v", masterAddr, registerReplyTimeout)
		}
	}
	node.SetSelf(rpc.NodeID(wel.Worker))
	for _, p := range wel.Peers {
		node.AddPeer(rpc.NodeID(p.Worker), p.Addr)
	}
	cfg := Config{
		CoresPerWorker: wel.CoresPerWorker,
		WS:             WorkStealing(wel.WS),
		IdleSleep:      time.Duration(wel.IdleSleep),
		WorkerTimeout:  time.Duration(wel.WorkerTimeout),
	}.withDefaults()
	host := &remoteHost{cfg: cfg, node: node, jobs: map[int]*remoteJob{}}
	w := newWorker(wel.Worker, cfg, host, tr)
	for _, env := range pending {
		w.runs.handleControl(w, env)
	}
	w.start()
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		select {
		case <-ctx.Done():
			// Closing the transport ends the worker's receive loop; its
			// current step (if any) is aborted and drained on the way out.
			tr.Close()
		case <-stop:
		}
	}()
	w.stop()
	close(stop)
	watcher.Wait()
	return ctx.Err()
}

// remoteJob is a job materialized from a spec: everything an attempt needs,
// cached until the master retires the job.
type remoteJob struct {
	job   Job
	steps []*step.Step
	// env is the job's aggregation environment. Unlike in-process workers it
	// is NOT shared with the master: committed values arrive as encoded
	// deltas on step starts and replace entries here.
	env *agg.Registry
	// protos maps every aggregation name the job can ship or receive to a
	// decode template: the spec's environment protos plus each step's own
	// aggregations.
	protos map[string]agg.Store
}

// remoteHost implements runProvider for a worker process.
type remoteHost struct {
	cfg    Config
	node   *rpc.TCPNode
	graphs graphCache

	mu   sync.Mutex
	jobs map[int]*remoteJob
}

// runFor synthesizes a fresh jobRun for the attempt — the job state and a
// fresh abort flag, as the master's newAttempt builds for in-process
// workers — after folding the shipped environment delta in.
func (h *remoteHost) runFor(m stepStartMsg) *jobRun {
	h.mu.Lock()
	rj := h.jobs[m.Job]
	h.mu.Unlock()
	if rj == nil || m.Step < 0 || m.Step >= len(rj.steps) {
		return nil
	}
	for _, e := range m.Env {
		proto, ok := rj.protos[e.Name]
		if !ok {
			return nil
		}
		store := proto.NewEmpty()
		if store.DecodeAndMerge(e.Data) != nil {
			return nil
		}
		// Replace, not merge: the delta is the master's committed value.
		rj.env.Put(e.Name, store)
	}
	total := len(m.Workers) * h.cfg.CoresPerWorker
	if total <= 0 {
		return nil
	}
	return &jobRun{
		job:        m.Job,
		attempt:    m.Attempt,
		parts:      m.Workers,
		totalCores: total,
		graph:      rj.job.Graph,
		kind:       rj.job.Kind,
		plan:       rj.job.Plan,
		customs:    cloneCustom(rj.job.Custom, total),
		steps:      rj.steps,
		env:        rj.env,
	}
}

// handleControl serves the control traffic in-process workers never see:
// job-spec installation, job retirement, and peer discovery.
func (h *remoteHost) handleControl(w *worker, env rpc.Envelope) {
	switch env.Kind {
	case kJobSpec:
		var m jobSpecMsg
		if decode(env.Body, &m) != nil {
			return
		}
		errStr := ""
		if err := h.install(m); err != nil {
			errStr = err.Error()
		}
		ack := jobSpecAckMsg{Job: m.Job, Worker: w.id, Err: errStr}
		w.tr.Send(rpc.Master, rpc.Envelope{Kind: kJobSpecAck, Body: encode(ack)})
	case kJobEnd:
		var m jobEndMsg
		if decode(env.Body, &m) != nil {
			return
		}
		h.mu.Lock()
		delete(h.jobs, m.Job)
		h.mu.Unlock()
	case kPeerJoin:
		var m peerJoinMsg
		if decode(env.Body, &m) != nil || m.Addr == "" {
			return
		}
		h.node.AddPeer(rpc.NodeID(m.Worker), m.Addr)
	}
}

// install materializes one job spec: load the graph, rebuild the workflow
// through the registered app, decode the shipped environment, and split the
// workflow into steps — the same deterministic pipeline the master runs, so
// both sides hold identical step lists.
func (h *remoteHost) install(m jobSpecMsg) error {
	spec := msgToSpec(m)
	builder, err := builderFor(spec.App)
	if err != nil {
		return err
	}
	g, err := h.graphs.load(spec.Graph)
	if err != nil {
		return fmt.Errorf("loading graph %q: %w", spec.Graph, err)
	}
	protos, err := builder.EnvProtos(spec)
	if err != nil {
		return err
	}
	env, err := decodeEnv(m.Env, protos)
	if err != nil {
		return err
	}
	job, err := builder.Build(spec, g, env)
	if err != nil {
		return fmt.Errorf("building %q: %w", spec.App, err)
	}
	job.Env = env
	pre := map[string]bool{}
	for _, n := range env.Names() {
		pre[n] = true
	}
	steps, err := step.Split(job.Workflow, pre)
	if err != nil {
		return err
	}
	all := make(map[string]agg.Store, len(protos))
	for n, p := range protos {
		all[n] = p
	}
	for _, s := range steps {
		for _, sp := range s.AggSpecs() {
			all[sp.Name] = sp.Proto
		}
	}
	h.mu.Lock()
	h.jobs[m.Job] = &remoteJob{job: job, steps: steps, env: env, protos: all}
	h.mu.Unlock()
	return nil
}
