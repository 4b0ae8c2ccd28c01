// Motif extraction & counting (Listing 1 of the paper):
//
//	val motifs = graph.vfractoid.expand(k).
//	  aggregate[Pattern,Long]("motifs", pattern, 1, sum).
//	  aggregation("motifs")
//
// The aggregation key is the canonical pattern of each k-vertex induced
// subgraph and the reduction is a sum, giving the frequency of every motif.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"fractal"
	"fractal/internal/agg"
	"fractal/internal/workload"
)

func main() {
	graphPath := flag.String("graph", "", "optional input graph (.graph/.el)")
	k := flag.Int("k", 3, "motif size in vertices")
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
		g = ctx.FromGraph(workload.Relabel(
			workload.Community("motifs-demo", 20, 40, 10, 1.0, 4, 11), "motifs-demo"))
	}

	// The Listing 1 pipeline: expand(k) then aggregate pattern -> count.
	frac := fractal.Aggregate(g.VFractoid().Expand(*k), "motifs",
		func(e *fractal.Subgraph) string { return ctx.PatternOf(e).Code },
		func(e *fractal.Subgraph) agg.PatternCount {
			return agg.PatternCount{Pat: ctx.PatternRep(e), Count: 1}
		},
		agg.ReducePatternCount, nil)

	motifs, res, err := fractal.AggregationMapCtx[string, agg.PatternCount](context.Background(), frac, "motifs")
	if err != nil {
		log.Fatal(err)
	}

	type row struct {
		pat   string
		count int64
	}
	rows := make([]row, 0, len(motifs))
	var total int64
	for _, pc := range motifs {
		rows = append(rows, row{pat: pc.Pat.String(), count: pc.Count})
		total += pc.Count
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })

	fmt.Printf("%d-vertex motifs: %d classes over %d subgraphs (%v)\n",
		*k, len(rows), total, res.Wall)
	for _, r := range rows {
		fmt.Printf("%10d  %s\n", r.count, r.pat)
	}
}
