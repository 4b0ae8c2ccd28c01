// Keyword-based subgraph search (Listing 4 of the paper) over an attributed
// knowledge graph: find minimal connected edge sets whose keywords cover the
// query, with every edge justifying at least one cover. Demonstrates the
// graph reduction optimization of Section 4.3: the same query runs on the
// original graph G and on the reduced view G0 that keeps only edges carrying
// a query keyword.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/workload"
)

func main() {
	graphPath := flag.String("graph", "", "optional input graph (.el with .kw sidecar)")
	query := flag.String("keywords", "kw2,kw5,kw9", "comma-separated query keywords")
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
		g = ctx.FromGraph(workload.KnowledgeGraph("kg-demo", 4000, 4800, 40, 400, 17))
	}
	keywords := strings.Split(*query, ",")
	s := g.Stats()
	fmt.Printf("graph: |V|=%d |E|=%d keywords=%d, query=%v\n", s.V, s.E, s.Keywords, keywords)

	full, err := apps.KeywordSearch(context.Background(), ctx, g, keywords, apps.KeywordOptions{})
	if err != nil {
		log.Fatal(err)
	}
	red, err := apps.KeywordSearch(context.Background(), ctx, g, keywords, apps.KeywordOptions{GraphReduction: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("on G : matches=%d  EC=%-10d  |V|=%d |E|=%d  %v\n",
		full.Matches, full.EC, full.GraphV, full.GraphE, full.Result.Wall)
	fmt.Printf("on G0: matches=%d  EC=%-10d  |V|=%d |E|=%d  %v\n",
		red.Matches, red.EC, red.GraphV, red.GraphE, red.Result.Wall)
	if full.EC > 0 {
		fmt.Printf("graph reduction cut the extension cost by %.2f%%\n",
			100*(1-float64(red.EC)/float64(full.EC)))
	}
}
