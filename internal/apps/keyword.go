package apps

import (
	"context"
	"fmt"
	"sync/atomic"

	"fractal"
	"fractal/internal/graph"
)

// KeywordOptions tunes the keyword search kernel.
type KeywordOptions struct {
	// GraphReduction enables the Section 4.3 optimization: before
	// enumeration, the input graph is reduced to the edges carrying at
	// least one query keyword (and the vertices they touch).
	GraphReduction bool
}

// KeywordResult is the outcome of a keyword search.
type KeywordResult struct {
	// Matches is the number of minimal covering subgraphs found.
	Matches int64
	// EC is the extension cost of the enumeration.
	EC int64
	// GraphV and GraphE are the sizes of the (possibly reduced) graph the
	// query ran on.
	GraphV, GraphE int
	// Result carries the execution metrics.
	Result *fractal.Result
}

// KeywordSearch implements the candidate retrieval of Elbassuoni & Blanco
// (Listing 4 of the paper): it finds edge-induced subgraphs with at most
// len(keywords) edges whose edges cover all the query keywords, with every
// edge contributing at least one keyword no earlier edge contributes
// (otherwise the subgraph is non-minimal and pruned).
func KeywordSearch(ctx context.Context, fc *fractal.Context, g *fractal.Graph, keywords []string, opts KeywordOptions) (*KeywordResult, error) {
	raw := g.Raw()
	query := make([]graph.Label, 0, len(keywords))
	for _, kw := range keywords {
		l, ok := raw.Dict().Lookup(kw)
		if !ok {
			return nil, fmt.Errorf("apps: keyword %q not present in graph", kw)
		}
		query = append(query, l)
	}

	if opts.GraphReduction {
		g = reduceToKeywordEdges(g, query)
	}

	// lastEdgeIsValid (Listing 4): the most recently added edge must
	// contribute a query keyword that no earlier edge contributes.
	lastEdgeValid := func(e *fractal.Subgraph) bool {
		gr := e.Graph()
		edges := e.Edges()
		last := edges[len(edges)-1]
		lastKws := gr.EdgeKeywords(last)
		for _, q := range query {
			if !graph.ContainsLabel(lastKws, q) {
				continue
			}
			covered := false
			for _, prev := range edges[:len(edges)-1] {
				if graph.ContainsLabel(gr.EdgeKeywords(prev), q) {
					covered = true
					break
				}
			}
			if !covered {
				return true
			}
		}
		return false
	}

	// Full coverage check applied to complete candidates.
	covers := func(e *fractal.Subgraph) bool {
		gr := e.Graph()
		for _, q := range query {
			found := false
			for _, id := range e.Edges() {
				if graph.ContainsLabel(gr.EdgeKeywords(id), q) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}

	// Candidates have between 1 and len(keywords) edges: every edge must
	// justify at least one new cover, so a covering subgraph can appear at
	// any level and never grows past the keyword count (its extensions all
	// fail lastEdgeValid). Coverage is therefore checked at every level.
	var matches atomic.Int64
	frac := g.EFractoid()
	for i := 0; i < len(query); i++ {
		frac = frac.Expand(1).Filter(lastEdgeValid).Visit(func(e *fractal.Subgraph) {
			if covers(e) {
				matches.Add(1)
			}
		})
	}
	res, err := frac.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &KeywordResult{
		Matches: matches.Load(),
		EC:      res.TotalEC(),
		GraphV:  g.Stats().V,
		GraphE:  g.Stats().E,
		Result:  res,
	}, nil
}

// reduceToKeywordEdges keeps the edges carrying at least one query keyword
// and the vertices incident to them (the reduced graph G₀ of Section 5.2.3).
func reduceToKeywordEdges(g *fractal.Graph, query []graph.Label) *fractal.Graph {
	hasKw := func(kws []graph.Label) bool {
		for _, q := range query {
			if graph.ContainsLabel(kws, q) {
				return true
			}
		}
		return false
	}
	reduced := g.EFilter(func(id graph.EdgeID, gr *graph.Graph) bool {
		return hasKw(gr.EdgeKeywords(id))
	})
	return reduced.VFilter(func(v graph.VertexID, gr *graph.Graph) bool {
		return gr.Degree(v) > 0
	})
}
