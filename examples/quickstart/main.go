// Quickstart: count triangles and k-cliques with the Fractal API.
//
// This is Listing 2 of the paper —
//
//	graph.vfractoid.expand(1).filter(cliqueCheck).explore(k).subgraphs()
//
// — run on a generated co-authorship analog (pass -graph to use your own
// adjacency-list or edge-list file).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"syscall"
	"time"

	"fractal"
	"fractal/internal/workload"
)

func main() {
	graphPath := flag.String("graph", "", "optional input graph (.graph/.el)")
	cores := flag.Int("cores", 4, "execution cores")
	timeout := flag.Duration("timeout", 10*time.Minute, "deadline of the whole run, e.g. 5s; 0 for none")
	flag.Parse()

	// Ctrl-C cancels the running query instead of leaving the runtime
	// wedged; -timeout bounds the whole run.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fctx, err := fractal.NewContext(fractal.WithCores(*cores))
	if err != nil {
		log.Fatal(err)
	}
	defer fctx.Close()

	var g *fractal.Graph
	if *graphPath != "" {
		if g, err = fctx.LoadGraph(*graphPath); err != nil {
			log.Fatal(err)
		}
	} else {
		g = fctx.FromGraph(workload.Relabel(
			workload.Community("quickstart", 30, 40, 12, 1.0, 8, 7), "quickstart"))
	}
	s := g.Stats()
	fmt.Printf("graph: |V|=%d |E|=%d\n", s.V, s.E)

	for k := 3; k <= 5; k++ {
		count, res, err := g.VFractoid().
			Expand(1).
			Filter(fractal.CliqueFilter).
			Explore(k).
			CountCtx(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d-cliques: %-8d (extension cost %d, %v)\n", k, count, res.TotalEC(), res.Wall)
	}
}
