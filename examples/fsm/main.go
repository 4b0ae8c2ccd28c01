// Frequent subgraph mining (Listing 3 of the paper): edge-induced growth
// with the minimum image-based support, iterating
//
//	fsm = fsm.filter("support", contains).expand(1).aggregate("support", ...)
//
// until no new frequent pattern appears. Past the first level, each level
// mines the frequent-edge graph (Section 4.3's reduction, always on): the
// edges whose 1-edge pattern is infrequent, unless another edge joins the
// same endpoints, are gone before the deeper levels re-enumerate from scratch.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/workload"
)

func main() {
	graphPath := flag.String("graph", "", "optional input graph (.graph/.el)")
	support := flag.Int64("support", 40, "minimum image-based support α")
	maxEdges := flag.Int("maxedges", 3, "largest pattern size in edges")
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
		g = ctx.FromGraph(workload.Community("fsm-demo", 20, 30, 8, 0.8, 6, 13))
	}
	s := g.Stats()
	fmt.Printf("graph: |V|=%d |E|=%d |L|=%d, α=%d\n", s.V, s.E, s.L, *support)

	res, err := apps.FSM(context.Background(), ctx, g, *support, apps.FSMOptions{MaxEdges: *maxEdges})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("frequent patterns per level (edges=1..): %v\n", res.PerLevel)
	type row struct {
		sup int64
		pat string
	}
	rows := make([]row, 0, len(res.Frequent))
	for _, ds := range res.Frequent {
		rows = append(rows, row{sup: ds.Support(), pat: ds.Pat.String()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sup > rows[j].sup })
	for _, r := range rows {
		fmt.Printf("s=%-6d %s\n", r.sup, r.pat)
	}
}
