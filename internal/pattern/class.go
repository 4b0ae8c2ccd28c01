package pattern

import (
	"sync"
	"sync/atomic"
)

// Class is the isomorphism class of one pattern as one of its vertex
// numberings sees it. Code and Rep are the class's own — one string and one
// pattern per class in the whole process, so every numbering, core and job
// hands out the identical Rep pointer and "first pattern wins" reductions do
// not depend on arrival or merge order. Perm belongs to the numbering: it
// maps each of its vertices to its position in Rep.
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
// table. It runs the canonical-labelling search on every call: per-embedding
// callers go through subgraph.Embedding.Class, which pays it once per
// distinct quick pattern.
func Classify(p *Pattern) *Class {
	cl, _ := classify(p)
	return cl
}

// classify is Classify, also reporting whether the class was already known.
func classify(p *Pattern) (cl *Class, known bool) {
	canon := p.Canonical()
	classes.mu.Lock()
	shared, known := classes.m[canon.Code]
	if !known {
		shared = &Class{Canon: Canon{Code: canon.Code}, Rep: p.Relabel(canon.Perm)}
		classes.m[canon.Code] = shared
	}
	classes.mu.Unlock()
	return &Class{Canon: Canon{Code: shared.Code, Perm: canon.Perm}, Rep: shared.Rep}, known
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
