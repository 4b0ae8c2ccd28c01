// The master-side worker registry: registration handshakes, peer discovery,
// and job-spec distribution for distributed (master-mode) deployments. The
// registry is what makes the worker set elastic — participants of each step
// attempt are drawn from the running job's ready list, re-queried on every
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

// activeSpec tracks the distribution of the running job's spec.
type activeSpec struct {
	msg    jobSpecMsg
	ready  map[int]bool   // acked ok: eligible participants
	failed map[int]string // acked with an error
}

// registry serves registrations and feeds participant lists; it lives on the
// master runtime and is driven by the router goroutine (handleRegister,
// handleAck) and the run loop (readyWorkers, distribute, done).
type registry struct {
	rt   *Runtime
	node *rpc.TCPNode // the unwrapped master node, for its address book

	mu      sync.Mutex
	nextID  int
	workers map[int]string // registered worker ID -> listener address
	job     *activeSpec    // the running job's spec, nil between jobs
	// changed is closed, and replaced, whenever a registration or a spec ack
	// arrives: the waits in distribute and awaitWorkers block on it.
	changed chan struct{}
}

func newRegistry(rt *Runtime, node *rpc.TCPNode) *registry {
	return &registry{rt: rt, node: node, workers: map[int]string{}, changed: make(chan struct{})}
}

// signal wakes every wait on the registry's state. g.mu must be held.
func (g *registry) signal() {
	close(g.changed)
	g.changed = make(chan struct{})
}

// handleRegister serves one registration: assign the next worker ID, admit
// the address, reply with the execution configuration and address book,
// announce the newcomer to its peers, and hand it the running job's spec so
// it can join that job at its next step attempt.
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
	peerIDs := sortedIDs(g.workers, map[int]bool{id: true})
	for _, wid := range peerIDs {
		wel.Peers = append(wel.Peers, peerAddr{Worker: wid, Addr: g.workers[wid]})
	}
	sp := g.job
	g.mu.Unlock()

	g.node.AddPeer(rpc.NodeID(id), m.Addr)
	// The welcome must precede the spec (same ordered connection): the
	// worker adopts its ID from it before acking anything.
	g.rt.master.Send(rpc.NodeID(id), rpc.Envelope{Kind: kWelcome, Body: encode(wel)})
	if sp != nil {
		g.rt.master.Send(rpc.NodeID(id), rpc.Envelope{Kind: kJobSpec, Body: encode(sp.msg)})
	}
	joinBody := encode(peerJoinMsg{Worker: id, Addr: m.Addr})
	for _, wid := range peerIDs {
		g.rt.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kPeerJoin, Body: joinBody})
	}
}

// handleAck records a worker's verdict on the running job's spec.
func (g *registry) handleAck(env rpc.Envelope) {
	var m jobSpecAckMsg
	if decode(env.Body, &m) != nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	sp := g.job
	if sp == nil || sp.msg.Job != m.Job {
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
	g.job = sp
	targets := sortedIDs(g.workers, nil)
	g.mu.Unlock()
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

// done forgets the finished job's spec, so no newcomer is handed it.
func (g *registry) done() {
	g.mu.Lock()
	g.job = nil
	g.mu.Unlock()
}

// readyWorkers returns the running job's spec-ready workers minus the
// excluded set, in rank (ascending ID) order.
func (g *registry) readyWorkers(excluded map[int]bool) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.job == nil {
		return nil
	}
	return sortedIDs(g.job.ready, excluded)
}

// workerIDs lists every registered worker, ascending.
func (g *registry) workerIDs() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return sortedIDs(g.workers, nil)
}

// sortedIDs lists m's worker IDs minus the excluded ones, ascending.
func sortedIDs[V any](m map[int]V, excluded map[int]bool) []int {
	out := make([]int, 0, len(m))
	for wid := range m {
		if !excluded[wid] {
			out = append(out, wid)
		}
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
