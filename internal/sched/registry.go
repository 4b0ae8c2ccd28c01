// The master-side worker registry of distributed (master-mode) deployments:
// registration is two messages, the worker's register and the master's
// welcome, and the registry keeps each welcomed worker's listener address.
// It is what makes the worker set elastic — participants of each step
// attempt are the registered workers minus the job's excluded set,
// re-queried on every attempt, so a fractal-worker process that registers
// mid-job is folded in at the next attempt boundary (it installs the job,
// and learns where its peers listen, from that step start), and one that
// dies or cannot install the job is excluded by the retry loop's
// worker-loss machinery, exactly as in-process. One the master can no longer
// send to is forgotten (drop), so it fails no later job.
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

// registry serves registrations and feeds participant lists; it lives on the
// master runtime and is driven by the router goroutine (handleRegister) and
// the run loop (workerIDs, address, awaitWorkers).
type registry struct {
	rt     *Runtime
	node   *rpc.TCPNode // the unwrapped master node, for its address book
	nextID int          // the router's alone

	mu      sync.Mutex
	workers map[int]string // welcomed worker ID -> listener address
	// changed is closed, and replaced, whenever a worker is admitted: the
	// wait in awaitWorkers blocks on it.
	changed chan struct{}
}

func newRegistry(rt *Runtime, node *rpc.TCPNode) *registry {
	return &registry{rt: rt, node: node, workers: map[int]string{}, changed: make(chan struct{})}
}

// handleRegister serves one registration: assign the next worker ID, reply
// with the execution configuration, and only then admit the worker, so that
// the step start that first names it follows its welcome on the connection
// the registration came on, bound to the worker's ID in place of its
// provisional one (rpc.TCPNode.Rename).
func (g *registry) handleRegister(env rpc.Envelope) {
	var m registerMsg
	if decode(env.Body, &m) != nil || m.Addr == "" {
		return
	}
	id := g.nextID
	g.nextID++
	cfg := g.rt.cfg
	wel := welcomeMsg{
		Worker:         id,
		CoresPerWorker: cfg.CoresPerWorker,
		WS:             uint8(cfg.WS),
		WorkerTimeout:  int64(cfg.WorkerTimeout),
	}
	g.node.Rename(env.From, rpc.NodeID(id))
	g.node.AddPeer(rpc.NodeID(id), m.Addr)
	g.rt.master.Send(rpc.NodeID(id), rpc.Envelope{Kind: kWelcome, Body: encode(wel)})
	g.mu.Lock()
	g.workers[id] = m.Addr
	close(g.changed)
	g.changed = make(chan struct{})
	g.mu.Unlock()
}

// workerIDs lists the admitted workers minus the excluded ones, ascending:
// in rank order.
func (g *registry) workerIDs(excluded map[int]bool) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, len(g.workers))
	for wid := range g.workers {
		if !excluded[wid] {
			out = append(out, wid)
		}
	}
	sort.Ints(out)
	return out
}

// address fills in the address each of a step start's participants
// registered; one dropped since keeps none.
func (g *registry) address(ps []peerAddr) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range ps {
		ps[i].Addr = g.workers[ps[i].Worker]
	}
}

// awaitWorkers waits until n workers have been admitted, or ctx ends.
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

// drop forgets a worker the master could not send to: no later attempt
// names it. A restarted worker process registers again, under a new ID.
func (g *registry) drop(wid int) {
	g.mu.Lock()
	delete(g.workers, wid)
	g.mu.Unlock()
}
