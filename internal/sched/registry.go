// The master-side worker registry: registration handshakes, peer discovery,
// and job-spec distribution for distributed (master-mode) deployments. The
// registry is what makes the worker set elastic — participants of each step
// attempt are drawn from its per-job ready lists, re-queried on every
// attempt, so a fractal-worker process that registers mid-job is folded in
// at the next attempt boundary (and one that dies is excluded by the retry
// loop's worker-loss machinery, exactly as in-process).
package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"fractal/internal/rpc"
)

// registerReplyTimeout bounds how long a worker process waits for the
// master's registration reply before giving up.
const registerReplyTimeout = 30 * time.Second

// specAckGrace is how long distribute keeps waiting for the remaining
// workers' spec acks once at least one is ready: enough for healthy workers
// to all start at step 0, without letting one dead registrant add a full
// WorkerTimeout to every job. Stragglers join at the next attempt anyway.
const specAckGrace = 50 * time.Millisecond

// activeSpec tracks the distribution of one job's spec.
type activeSpec struct {
	msg    jobSpecMsg
	ready  map[int]bool   // acked ok: eligible participants
	failed map[int]string // acked with an error
}

// registry serves registrations and feeds participant lists; it lives on the
// master runtime and is driven by the router goroutine (handleRegister,
// handleAck) and the run loop (readyWorkers, distribute, endJob).
type registry struct {
	rt   *Runtime
	node *rpc.TCPNode // the unwrapped master node, for its address book

	mu      sync.Mutex
	nextID  int
	workers map[int]string // registered worker ID -> listener address
	jobs    map[int]*activeSpec
	// changed is closed, and replaced, whenever a registration or a spec ack
	// arrives: the waits in distribute and awaitWorkers block on it.
	changed chan struct{}
}

func newRegistry(rt *Runtime, node *rpc.TCPNode) *registry {
	return &registry{rt: rt, node: node, workers: map[int]string{}, jobs: map[int]*activeSpec{}, changed: make(chan struct{})}
}

// signal wakes every wait on the registry's state. g.mu must be held.
func (g *registry) signal() {
	close(g.changed)
	g.changed = make(chan struct{})
}

// handleRegister serves one registration: assign the next worker ID, admit
// the address, reply with the execution configuration and address book,
// announce the newcomer to its peers, and hand it every active job spec so
// it can join jobs already in flight.
func (g *registry) handleRegister(env rpc.Envelope) {
	var m registerMsg
	if decode(env.Body, &m) != nil || m.Addr == "" {
		return
	}
	cfg := g.rt.cfg
	g.mu.Lock()
	id := g.nextID
	g.nextID++
	g.workers[id] = m.Addr
	g.signal()
	wel := welcomeMsg{
		Worker:         id,
		CoresPerWorker: cfg.CoresPerWorker,
		WS:             uint8(cfg.WS),
		WorkerTimeout:  int64(cfg.WorkerTimeout),
	}
	join := peerJoinMsg{Worker: id, Addr: m.Addr}
	var peerIDs []int
	for wid, addr := range g.workers {
		if wid != id {
			wel.Peers = append(wel.Peers, peerAddr{Worker: wid, Addr: addr})
			peerIDs = append(peerIDs, wid)
		}
	}
	sort.Slice(wel.Peers, func(i, j int) bool { return wel.Peers[i].Worker < wel.Peers[j].Worker })
	specs := make([]jobSpecMsg, 0, len(g.jobs))
	for _, sp := range g.jobs {
		specs = append(specs, sp.msg)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Job < specs[j].Job })
	g.mu.Unlock()

	g.node.AddPeer(rpc.NodeID(id), m.Addr)
	// The welcome must precede the specs (same ordered connection): the
	// worker adopts its ID from it before acking anything.
	g.rt.master.Send(rpc.NodeID(id), rpc.Envelope{Kind: kWelcome, Body: encode(wel)})
	for _, sp := range specs {
		g.rt.master.Send(rpc.NodeID(id), rpc.Envelope{Kind: kJobSpec, Body: encode(sp)})
	}
	joinBody := encode(join)
	for _, wid := range peerIDs {
		g.rt.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kPeerJoin, Body: joinBody})
	}
}

// handleAck records a worker's verdict on a distributed job spec.
func (g *registry) handleAck(env rpc.Envelope) {
	var m jobSpecAckMsg
	if decode(env.Body, &m) != nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	sp, ok := g.jobs[m.Job]
	if !ok {
		return
	}
	if m.Err != "" {
		sp.failed[m.Worker] = m.Err
	} else {
		sp.ready[m.Worker] = true
	}
	g.signal()
}

// distribute ships a job spec to every registered worker and waits until the
// job can start: at least one worker materialized it. It keeps waiting
// (bounded by specAckGrace) for the rest once the first is ready, so healthy
// deployments start steps at full strength; workers that ack later join at
// the next attempt. With no ready worker the wait is bounded by
// WorkerTimeout — covering the "workers still starting up" window — and a
// unanimous failure fails fast.
func (g *registry) distribute(ctx context.Context, msg jobSpecMsg) error {
	g.mu.Lock()
	sp := &activeSpec{msg: msg, ready: map[int]bool{}, failed: map[int]string{}}
	g.jobs[msg.Job] = sp
	targets := make([]int, 0, len(g.workers))
	for wid := range g.workers {
		targets = append(targets, wid)
	}
	g.mu.Unlock()
	sort.Ints(targets)
	body := encode(msg)
	for _, wid := range targets {
		// Best effort: an unreachable worker is discovered (and excluded)
		// by the ack wait and the step protocol.
		g.rt.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kJobSpec, Body: body})
	}
	deadline := time.Now().Add(g.rt.cfg.WorkerTimeout)
	graceSet := false
	for {
		g.mu.Lock()
		nReady, nFailed := len(sp.ready), len(sp.failed)
		var firstErr string
		for _, e := range sp.failed {
			firstErr = e
			break
		}
		// Registrations may have arrived since the send loop; they received
		// the spec in their registration handshake, so count them as targets.
		nTargets := len(g.workers)
		changed := g.changed
		g.mu.Unlock()
		if nTargets < len(targets) {
			nTargets = len(targets)
		}
		switch {
		case nReady > 0 && nReady+nFailed >= nTargets:
			return nil
		case nTargets > 0 && nFailed >= nTargets:
			return fmt.Errorf("sched: job spec %q rejected by all %d workers: %s", msg.App, nFailed, firstErr)
		}
		if nReady > 0 && !graceSet {
			graceSet = true
			if g := time.Now().Add(specAckGrace); g.Before(deadline) {
				deadline = g
			}
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			if nReady > 0 {
				return nil
			}
			return fmt.Errorf("sched: no worker materialized job spec %q within %v (%d registered, %d failed: %s)",
				msg.App, g.rt.cfg.WorkerTimeout, nTargets, nFailed, firstErr)
		}
		t := time.NewTimer(wait)
		select {
		case <-changed:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// endJob retires a completed job: workers drop their cached state.
func (g *registry) endJob(jobID int) {
	g.mu.Lock()
	delete(g.jobs, jobID)
	targets := make([]int, 0, len(g.workers))
	for wid := range g.workers {
		targets = append(targets, wid)
	}
	g.mu.Unlock()
	body := encode(jobEndMsg{Job: jobID})
	for _, wid := range targets {
		g.rt.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kJobEnd, Body: body})
	}
}

// readyWorkers returns the job's spec-ready workers minus the excluded set,
// in rank (ascending ID) order.
func (g *registry) readyWorkers(jobID int, excluded map[int]bool) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	sp, ok := g.jobs[jobID]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(sp.ready))
	for wid := range sp.ready {
		if !excluded[wid] {
			out = append(out, wid)
		}
	}
	sort.Ints(out)
	return out
}

// workerIDs lists every registered worker, ascending.
func (g *registry) workerIDs() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, len(g.workers))
	for wid := range g.workers {
		out = append(out, wid)
	}
	sort.Ints(out)
	return out
}

// awaitWorkers waits until n workers have registered or ctx ends.
func (g *registry) awaitWorkers(ctx context.Context, n int) error {
	for {
		g.mu.Lock()
		have, changed := len(g.workers), g.changed
		g.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return fmt.Errorf("sched: waiting for %d workers (have %d): %w", n, have, ctx.Err())
		}
	}
}
