package subgraph

import "fractal/internal/graph"

// CustomExtender is the advanced-user hook of Appendix B of the paper: a
// replacement extension-candidate generator that may keep its own state per
// enumeration level (the paper's example is KClist, which maintains a DAG
// view of the neighborhood at each depth). The embedding still performs its
// normal vertex/edge bookkeeping; the extender only overrides candidate
// generation and observes pushes and pops to maintain its state.
//
// Extenders own duplicate-freedom: when a custom extender is installed the
// default canonical-generation check is bypassed, so Extensions must itself
// yield each subgraph exactly once (KClist does so by extending in
// increasing vertex order).
type CustomExtender interface {
	// Clone returns a fresh instance for one execution core. The runtime
	// calls it serially, in core order, before the cores start, so it need
	// not be safe for concurrent use and may advance the prototype.
	Clone() CustomExtender
	// Reset prepares the instance for a new enumeration over g.
	Reset(g *graph.Graph)
	// Extensions computes the extension candidates of the current
	// embedding, appending to dst, and returns the extended slice and the
	// number of candidate tests performed (extension cost).
	Extensions(e *Embedding, dst []Word) ([]Word, int)
	// Pushed notifies that w was appended to the embedding.
	Pushed(e *Embedding, w Word)
	// Popped notifies that the last word is about to be removed.
	Popped(e *Embedding)
}

// NewCustom returns an empty vertex-induced embedding whose extension
// candidates are produced by custom. The extender is Reset against g.
func NewCustom(g *graph.Graph, custom CustomExtender) *Embedding {
	e := New(g, VertexInduced, nil)
	custom.Reset(g)
	e.custom = custom
	return e
}
