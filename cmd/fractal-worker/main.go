// Command fractal-worker runs one worker process of a distributed fractal
// deployment: it connects to a master (a fractal.Context created with
// WithListenAddr, e.g. `fractal -listen`), registers, and serves steps until
// the master goes away or the process is signalled.
//
// Usage:
//
//	fractal-worker -master <ip:port> [-listen <ip:port>] [-cores <n>]
//
// Addresses are IP literals ("10.0.0.5:7001", "[fd00::5]:7001"), localhost
// or an empty host (":0"); the transport resolves no other names. A worker
// on a wildcard host (":0") registers the IP it reaches the master from, so
// a worker that reaches its master over loopback registers loopback.
//
// The master dictates the execution configuration (cores per worker, work
// stealing, timeouts) in its registration reply, and the worker does not
// send -cores to it. -cores sizes the process's own Go runtime: GOMAXPROCS
// is set to -cores unless the environment sets it, so several workers on
// one machine do not each bring a runtime as wide as the machine. Job
// specs name graphs by path, so the graph files must be readable at the
// same paths on this machine. A ".fgr" graph (see `fractal -convert`) is
// memory-mapped rather than parsed, so worker processes sharing a machine
// share one physical copy of the graph.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"fractal"
	// Registers the distributable applications (cliques, motifs, fsm); a
	// worker can only materialize specs for apps linked into its binary.
	_ "fractal/internal/apps"
)

func main() {
	var (
		master = flag.String("master", "", "master address to register with, ip:port (required)")
		listen = flag.String("listen", "", "this worker's own listener address (default 127.0.0.1:0; use :0 to serve remote peers: the worker then registers the IP it reaches the master from)")
		cores  = flag.Int("cores", 0, "GOMAXPROCS of this process unless the environment sets it (0: the Go default); the master decides the execution cores")
	)
	flag.Parse()
	if *master == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *cores < 0 {
		fmt.Fprintf(os.Stderr, "fractal-worker: -cores must not be negative, got %d\n", *cores)
		os.Exit(2)
	}
	if *cores > 0 && os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(*cores)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	err := fractal.ServeWorker(ctx, *master, fractal.WorkerOptions{ListenAddr: *listen})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "fractal-worker:", err)
		os.Exit(1)
	}
}
