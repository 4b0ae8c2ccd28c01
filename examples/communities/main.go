// Clique percolation community discovery — one of the GPM applications the
// paper's introduction motivates (community discovery via clique
// percolation, Derényi et al.): two k-cliques belong to the same community
// when they share k-1 vertices. Cliques are enumerated with the KClist
// custom enumerator (Appendix B) on the Fractal runtime; percolation is a
// union-find pass over the streamed cliques.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/workload"
)

func main() {
	graphPath := flag.String("graph", "", "optional input graph (.graph/.el)")
	k := flag.Int("k", 4, "clique size for percolation")
	cores := flag.Int("cores", 4, "execution cores")
	flag.Parse()

	ctx, err := fractal.NewContext(fractal.WithCores(*cores))
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Close()

	var g *fractal.Graph
	if *graphPath != "" {
		if g, err = ctx.LoadGraph(*graphPath); err != nil {
			log.Fatal(err)
		}
	} else {
		// Planted communities: percolation should rediscover them.
		g = ctx.FromGraph(workload.Relabel(
			workload.Community("communities-demo", 12, 25, 10, 0.3, 4, 23), "communities-demo"))
	}
	s := g.Stats()
	fmt.Printf("graph: |V|=%d |E|=%d\n", s.V, s.E)

	comms, res, err := apps.CliqueCommunities(context.Background(), ctx, g, *k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d-clique communities: %d (%v)\n", *k, len(comms), res.Wall)
	for i, c := range comms {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(comms)-10)
			break
		}
		preview := c
		if len(preview) > 12 {
			preview = preview[:12]
		}
		fmt.Printf("  #%d size=%d vertices=%v\n", i+1, len(c), preview)
	}
}
