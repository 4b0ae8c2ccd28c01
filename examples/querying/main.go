// Subgraph querying (Listing 5 of the paper): list the instances of a query
// pattern with the pattern-induced fractoid —
//
//	results = graph.pfractoid(query).expand(query.nvertices).subgraphs()
//
// — over the whole q1..q8 suite of Figure 14, and show one custom query
// built with the pattern builder (a labeled triangle).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"fractal"
	"fractal/internal/apps"
	"fractal/internal/pattern"
	"fractal/internal/workload"
)

func main() {
	graphPath := flag.String("graph", "", "optional input graph (.graph/.el)")
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
		g = ctx.FromGraph(workload.Community("query-demo", 25, 30, 9, 0.9, 5, 19))
	}
	s := g.Stats()
	fmt.Printf("graph: |V|=%d |E|=%d |L|=%d\n", s.V, s.E, s.L)

	names := []string{"q1 triangle", "q2 square", "q3 diamond", "q4 4-clique",
		"q5 5-clique", "q6 house", "q7 prism", "q8 double-square"}
	for i, q := range apps.SEEDQueries() {
		n, res, err := apps.Query(context.Background(), ctx, g, q, apps.EnginePlan)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s matches=%-10d EC=%-10d %v\n", names[i], n, res.TotalEC(), res.Wall)
	}

	// A labeled query: a triangle whose three vertices carry label 0, 1, 2.
	labeled := pattern.NewBuilder(3).
		SetVertexLabel(0, 0).SetVertexLabel(1, 1).SetVertexLabel(2, 2).
		AddEdge(0, 1, pattern.NoLabel).
		AddEdge(1, 2, pattern.NoLabel).
		AddEdge(0, 2, pattern.NoLabel).
		Build()
	n, _, err := g.PFractoid(labeled).Expand(3).CountCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s matches=%d\n", "labeled triangle", n)
}
