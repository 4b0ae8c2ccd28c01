package pattern

import (
	"sync"
	"sync/atomic"

	"fractal/internal/graph"
)

// Class is an isomorphism class of patterns. Code and Rep are the class's
// own — one Class per class in the whole process (the class table below), so
// every numbering, core and job hands out the identical Rep pointer and
// "first pattern wins" reductions do not depend on arrival or merge order.
// Perm belongs to one numbering of the class: it maps each of the
// numbering's vertices to its position in Rep. The table's shared entries
// carry none (nil); Classify and subgraph.Embedding.Class answer with a view
// of the shared entry that has the asked numbering's Perm filled in.
type Class struct {
	Canon
	// Rep is the class pattern relabeled to canonical vertex order.
	Rep *Pattern
}

// classes is the process-wide class table, keyed by canonical code. It grows
// with the distinct classes the process has labelled and with nothing else;
// its content is a pure function of the code (relabeling to canonical
// positions yields the same labeled graph from every member of a class), so
// sharing it between jobs, contexts and tests changes no result.
var classes = struct {
	mu sync.Mutex
	m  map[string]*Class // Perm is nil in the table's own entries
}{m: map[string]*Class{}}

// Classify canonicalizes p and resolves its class through the process-wide
// table: the result is p's own view of the class, Perm included. It runs the
// canonical-labelling search on every call and allocates its buffers anew:
// per-embedding callers go through subgraph.Embedding.Class, which pays the
// search once per distinct quick pattern on a Labeller it keeps.
func Classify(p *Pattern) *Class {
	cl, _ := classify(p)
	return cl
}

// classify is Classify, also reporting whether the class was already known.
func classify(p *Pattern) (cl *Class, known bool) {
	var l Labeller // dropped on return: its perm is the caller's to keep
	shared, perm, known := l.classify(p)
	return &Class{Canon: Canon{Code: shared.Code, Perm: perm}, Rep: shared.Rep}, known
}

// Classify labels p and returns its class's shared table entry together with
// p's permutation (vertex -> position in Rep), which lives in the labeller
// and is valid until its next search. A class the table already holds costs
// no allocation; a new one costs its Code and its Rep.
func (l *Labeller) Classify(p *Pattern) (shared *Class, perm []int) {
	shared, perm, _ = l.classify(p)
	return shared, perm
}

func (l *Labeller) classify(p *Pattern) (shared *Class, perm []int, known bool) {
	code, perm := l.search(p)
	classes.mu.Lock()
	shared, known = classes.m[string(code)]
	if !known {
		shared = &Class{Canon: Canon{Code: string(code)}, Rep: p.Relabel(perm)}
		classes.m[shared.Code] = shared
	}
	classes.mu.Unlock()
	return shared, perm, known
}

// ClassifyEmbedding is Classify(FromEmbedding(g, vs, es)) with the pattern
// built on the labeller's scratch.
func (l *Labeller) ClassifyEmbedding(g *graph.Graph, vs []graph.VertexID, es []graph.EdgeID) (shared *Class, perm []int) {
	return l.Classify(fillFromEmbedding(&l.scratch, g, vs, es))
}

// CodeCache is the counting entry point to the class table for callers that
// hold patterns rather than embeddings; what still calls it is the
// repository benchmark's labelling probe (benchmark/, a module of its own).
// It keeps no state beyond the two counters, so its memory is bounded by the
// table's distinct classes however many numberings pass through it.
type CodeCache struct {
	hits, misses atomic.Uint64
}

// NewCodeCache returns a CodeCache. The argument, once an entry bound, is
// ignored: there is nothing left to evict.
func NewCodeCache(int) *CodeCache { return &CodeCache{} }

// Canonical returns the canonical form of p.
func (c *CodeCache) Canonical(p *Pattern) Canon {
	canon, _ := c.CanonicalRep(p)
	return canon
}

// Representative returns the shared representative of p's class.
func (c *CodeCache) Representative(p *Pattern) *Pattern {
	_, rep := c.CanonicalRep(p)
	return rep
}

// CanonicalRep returns the canonical form of p together with its class's
// shared representative.
func (c *CodeCache) CanonicalRep(p *Pattern) (Canon, *Pattern) {
	cl, known := classify(p)
	if known {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return cl.Canon, cl.Rep
}

// Stats returns how many calls found their class in the table (hits) and how
// many added it (misses).
func (c *CodeCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
