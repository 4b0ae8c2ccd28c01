// Package graph implements the labeled undirected multigraph model from
// Section 2.1 of the Fractal paper (SIGMOD 2019): vertices and edges carry
// label sets, edges are undirected, self-loops are forbidden. The in-memory
// representation is a flat CSR (compressed sparse row) core — offset arrays
// plus packed, sorted payload arrays, with adjacency indexed by neighbor
// vertex and, once something asks for edge identifiers, by edge identifier
// too — which the subgraph enumerators consume zero-copy. The same arrays
// have an on-disk form (the .fgr format, fgr.go) that loads via mmap so
// multiple worker processes share one physical copy.
package graph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// VertexID identifies a vertex in a Graph. IDs are dense in [0, NumVertices).
type VertexID int32

// EdgeID identifies an undirected edge in a Graph. IDs are dense in
// [0, NumEdges).
type EdgeID int32

// Label is an interned label (or keyword) identifier. The Dictionary maps
// labels to their external string form.
type Label int32

// NilVertex is returned by lookups that find no vertex.
const NilVertex VertexID = -1

// NilEdge is returned by lookups that find no edge.
const NilEdge EdgeID = -1

// Edge is one undirected edge. Src < Dst always holds (endpoints are
// normalized at construction; self-loops are rejected).
type Edge struct {
	Src, Dst VertexID
	Labels   []Label
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v VertexID) VertexID {
	switch v {
	case e.Src:
		return e.Dst
	case e.Dst:
		return e.Src
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// Has reports whether v is an endpoint of e.
func (e Edge) Has(v VertexID) bool { return v == e.Src || v == e.Dst }

// Graph is an immutable labeled undirected multigraph. Build one with a
// Builder or load one from a .fgr file (LoadFGR); a built Graph is safe for
// concurrent readers.
//
// Every field is a flat array: per-element variable-length data (label sets,
// keyword sets, adjacency runs) lives in one packed payload array addressed
// through an offsets array of length count+1. There are no per-vertex or
// per-edge slice headers and no maps, so a Graph loaded from a .fgr file can
// alias the file mapping directly — see the ownership rules in DESIGN.md §13.
// Accessors return subslices of the packed arrays; callers must never mutate
// them (for a mapped graph the memory may be read-only, so mutation faults).
//
// A label or keyword family is payload-only — its offsets array is nil —
// when every element has exactly one value (the payload is indexed by
// element, or holds one value when every element has the same: a one-label
// vertex column is one label) or none has any (the payload is empty). That
// is the one in-memory form of such a family: Builder.Build and DecodeFGR
// both produce it, and EncodeFGR writes the offsets and the payload the .fgr
// format requires, one value per element. Only span, the accessors below
// and the encoder may rely on it; everything else goes through them.
type Graph struct {
	name     string
	dict     *Dictionary
	numLabel int
	nv       int // |V|

	// CSR adjacency: the incidences of vertex v are rows adjOff[v] to
	// adjOff[v+1] of adjV (neighbor endpoint) and of the edge-id index adjE,
	// sorted by (neighbor, edge id) within each run. adjE is shared with
	// every Graph ApplyKeywords derives from this one.
	adjOff []int32    // len NumVertices+1
	adjV   []VertexID // len 2*NumEdges
	adjE   *edgeIndex

	// Flat edge endpoints: edge id -> (esrc[id], edst[id]), esrc[id] < edst[id].
	esrc []VertexID
	edst []VertexID

	// Packed label sets, each run sorted and deduplicated.
	vlabOff []int32 // len NumVertices+1, or nil: payload-only
	vlab    []Label
	elabOff []int32 // len NumEdges+1, or nil: payload-only
	elab    []Label

	// Packed keyword sets (Wikidata-style), in the same form; all empty
	// unless hasKW.
	hasKW  bool
	vkwOff []int32
	vkw    []Label
	ekwOff []int32
	ekw    []Label

	// unmap releases the file mapping the arrays alias, non-nil only for
	// graphs loaded with LoadFGR.
	unmap func() error

	// vlabFixed/elabFixed mark the one-label-each families — the
	// overwhelmingly common shape — so the label accessors test one flag
	// and index the payload directly, at the element's index masked by
	// vlabMask/elabMask: all ones over a label per element, zero over one
	// label all share.
	vlabFixed bool
	elabFixed bool
	vlabMask  uint
	elabMask  uint

	// uniform is the answer of UniformLabels.
	uniform struct {
		vl, el Label
		ok     bool
	}
}

// edgeIndex is the edge-id column of the adjacency, ids[i] the edge of row
// i. A mapped graph has it from its file. A built graph indexes it on the
// first call of an accessor that returns edge ids (IncidentEdges,
// EdgeBetween, EdgesBetween, EncodeFGR), once, whichever goroutine gets
// there first: counting jobs read neighbors only and never pay its 2|E|
// words.
type edgeIndex struct {
	once  sync.Once
	built atomic.Bool // ids is in place
	ids   []EdgeID
}

// indexed returns an edgeIndex that already holds ids.
func indexed(ids []EdgeID) *edgeIndex {
	x := &edgeIndex{ids: ids}
	x.built.Store(true)
	return x
}

// edgeIDs returns the edge-id column of the adjacency, indexing it first if
// no call has yet.
func (g *Graph) edgeIDs() []EdgeID {
	x := g.adjE
	if !x.built.Load() {
		x.once.Do(func() {
			x.ids = indexEdges(g.adjOff, g.esrc, g.edst)
			x.built.Store(true)
		})
	}
	return x.ids
}

// EdgeIndexed reports whether g holds the edge-id index of its adjacency:
// always for a mapped graph, and for a built one once an accessor that
// returns edge ids has run on it or on a graph sharing its adjacency.
func (g *Graph) EdgeIndexed() bool { return g.adjE.built.Load() }

// finalize derives |V|, the fast-path flags and the uniformity answer once
// the arrays are in place. Every Graph construction path ends with it.
func (g *Graph) finalize() {
	g.nv = max(len(g.adjOff)-1, 0)
	g.vlabFixed, g.vlabMask = fixedStride(g.vlab, g.vlabOff)
	g.elabFixed, g.elabMask = fixedStride(g.elab, g.elabOff)
	g.uniform.vl, g.uniform.el, g.uniform.ok = g.scanUniform()
}

// fixedStride reports whether a family has one label per element and the
// mask of an element's index into its payload.
func fixedStride(packed []Label, off []int32) (fixed bool, mask uint) {
	if len(packed) > 1 {
		mask = ^uint(0)
	}
	return off == nil && len(packed) > 0, mask
}

// shareOne returns a payload-only family's payload in its Graph form: the
// label once, on an array of its own, when every element has the same.
func shareOne(packed []Label) []Label {
	for _, l := range packed {
		if l != packed[0] {
			return packed
		}
	}
	if len(packed) > 1 {
		return []Label{packed[0]}
	}
	return packed
}

// Name returns the dataset name given at build time (may be empty).
func (g *Graph) Name() string { return g.name }

// NumVertices returns |V(G)|.
func (g *Graph) NumVertices() int { return g.nv }

// NumEdges returns |E(G)|.
func (g *Graph) NumEdges() int { return len(g.esrc) }

// NumLabels returns the number of distinct labels used by vertices and edges.
func (g *Graph) NumLabels() int { return g.numLabel }

// Density returns 2|E| / (|V| (|V|-1)), the undirected edge density.
func (g *Graph) Density() float64 {
	n := float64(g.NumVertices())
	if n < 2 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / (n * (n - 1))
}

// Dict returns the label dictionary, never nil.
func (g *Graph) Dict() *Dictionary { return g.dict }

// span returns the i-th run of a packed label array, nil when empty; a
// payload-only family (nil off) has stride one, one label for all, or is
// empty. Unsigned indexing as in Neighbors: validated offsets are never
// negative, so the signed lower-bound checks are dead weight.
func span(packed []Label, off []int32, i int32) []Label {
	j := uint(i)
	if off == nil {
		switch len(packed) {
		case 0:
			return nil
		case 1:
			j = 0
		}
		return packed[j : j+1 : j+1]
	}
	lo, hi := uint32(off[j]), uint32(off[j+1])
	if lo == hi {
		return nil
	}
	return packed[lo:hi:hi]
}

// VertexLabels returns the sorted label set of v. Callers must not mutate it.
func (g *Graph) VertexLabels(v VertexID) []Label {
	if g.vlabFixed {
		i := uint(v) & g.vlabMask
		return g.vlab[i : i+1 : i+1]
	}
	return span(g.vlab, g.vlabOff, int32(v))
}

// VertexLabel returns the first label of v, or -1 if v is unlabeled. Most
// kernels in the paper use single-labeled (-SL) graphs, where this is the
// label — and where the fixed-stride fast path makes it one array read.
func (g *Graph) VertexLabel(v VertexID) Label {
	i := uint(v)
	if g.vlabFixed {
		return g.vlab[i&g.vlabMask]
	}
	if g.vlabOff == nil {
		return -1
	}
	if lo, hi := g.vlabOff[i], g.vlabOff[i+1]; lo < hi {
		return g.vlab[uint32(lo)]
	}
	return -1
}

// EdgeByID returns the edge with identifier id. The Labels field aliases
// packed storage and must not be mutated.
func (g *Graph) EdgeByID(id EdgeID) Edge {
	return Edge{Src: g.esrc[id], Dst: g.edst[id], Labels: span(g.elab, g.elabOff, int32(id))}
}

// EdgeEndpoints returns the two endpoints of edge id with src < dst. It is
// the label-free form of EdgeByID for hot paths that only need endpoints —
// two array reads, no slice header construction.
func (g *Graph) EdgeEndpoints(id EdgeID) (src, dst VertexID) {
	return g.esrc[id], g.edst[id]
}

// EdgeLabel returns the first label of edge id, or -1 if unlabeled.
func (g *Graph) EdgeLabel(id EdgeID) Label {
	i := uint(id)
	if g.elabFixed {
		return g.elab[i&g.elabMask]
	}
	if g.elabOff == nil {
		return -1
	}
	if lo, hi := g.elabOff[i], g.elabOff[i+1]; lo < hi {
		return g.elab[uint32(lo)]
	}
	return -1
}

// Degree returns the number of incidences of v (parallel edges counted).
func (g *Graph) Degree(v VertexID) int {
	return int(g.adjOff[v+1] - g.adjOff[v])
}

// Neighbors returns the neighbor endpoints of v, sorted ascending. The
// returned slice aliases internal storage and must not be mutated.
// Offsets index as uint: a negative v wraps to a huge index and panics on
// the same bounds check, but the compiler drops the signed lower-bound
// tests from this hot path (validated offsets are never negative).
func (g *Graph) Neighbors(v VertexID) []VertexID {
	i := uint(v)
	return g.adjV[uint32(g.adjOff[i]):uint32(g.adjOff[i+1])]
}

// IncidentEdges returns the edge IDs incident to v, ordered to correspond
// with Neighbors(v). The returned slice must not be mutated. The first call
// on a built graph indexes the edge ids of the whole adjacency.
func (g *Graph) IncidentEdges(v VertexID) []EdgeID {
	i := uint(v)
	return g.edgeIDs()[uint32(g.adjOff[i]):uint32(g.adjOff[i+1])]
}

// NeighborRun returns the endpoint w of u and v with the smaller degree and
// the positions [lo, hi) of the other one in Neighbors(w), one per parallel
// edge: IncidentEdges(w)[lo:hi] are the edges between u and v, ascending.
// lo == hi when they are not adjacent (u == v never is). It is a binary
// search of neighbors and reads no edge id.
func (g *Graph) NeighborRun(u, v VertexID) (w VertexID, lo, hi int) {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nbu := g.Neighbors(u)
	lo, _ = slices.BinarySearch(nbu, v)
	hi = lo
	for hi < len(nbu) && nbu[hi] == v {
		hi++
	}
	return u, lo, hi
}

// HasEdge reports whether u and v are adjacent (by any edge). It reads
// neighbors only.
func (g *Graph) HasEdge(u, v VertexID) bool {
	_, lo, hi := g.NeighborRun(u, v)
	return lo < hi
}

// EdgeBetween returns the ID of one edge between u and v, or NilEdge. When
// parallel edges exist the one with the smallest ID among the matching run is
// returned.
func (g *Graph) EdgeBetween(u, v VertexID) EdgeID {
	if w, lo, hi := g.NeighborRun(u, v); lo < hi {
		return g.IncidentEdges(w)[lo]
	}
	return NilEdge
}

// EdgesBetween appends to dst the IDs of all edges between u and v, in
// ascending order, and returns the extended slice (multigraph-aware).
func (g *Graph) EdgesBetween(u, v VertexID, dst []EdgeID) []EdgeID {
	if w, lo, hi := g.NeighborRun(u, v); lo < hi {
		dst = append(dst, g.IncidentEdges(w)[lo:hi]...)
	}
	return dst
}

// VertexKeywords returns the keyword set of v (sorted), or nil.
func (g *Graph) VertexKeywords(v VertexID) []Label {
	return span(g.vkw, g.vkwOff, int32(v))
}

// EdgeKeywords returns the keyword set of edge id (sorted), or nil.
func (g *Graph) EdgeKeywords(id EdgeID) []Label {
	return span(g.ekw, g.ekwOff, int32(id))
}

// HasKeywords reports whether the graph carries keyword attributes.
func (g *Graph) HasKeywords() bool { return g.hasKW }

// UniformLabels reports whether every vertex carries at most one label and
// all vertices agree, and every edge label agrees; the common labels are
// returned (NoLabel sentinels for unlabeled). Uniform graphs admit
// label-blind engines — the motifs fast path and the decomposition sweep
// both key off this. The answer is computed once, when the graph is built or
// loaded.
func (g *Graph) UniformLabels() (vl, el Label, ok bool) {
	return g.uniform.vl, g.uniform.el, g.uniform.ok
}

func (g *Graph) scanUniform() (vl, el Label, ok bool) {
	if g.nv == 0 {
		return 0, 0, false
	}
	if vl, ok = commonLabel(g.vlab, g.vlabOff, true); !ok {
		return 0, 0, false
	}
	if el, ok = commonLabel(g.elab, g.elabOff, false); !ok {
		return 0, 0, false
	}
	return vl, el, true
}

// commonLabel returns the first label every element of a family shares, -1
// when none has a label; single also refuses a set of two or more.
func commonLabel(packed []Label, off []int32, single bool) (Label, bool) {
	if off == nil { // payload-only: one label each, or none at all
		for _, l := range packed {
			if l != packed[0] {
				return 0, false
			}
		}
		if len(packed) == 0 {
			return -1, true
		}
		return packed[0], true
	}
	common := Label(-1)
	for i := 0; i+1 < len(off); i++ {
		l, n := Label(-1), off[i+1]-off[i]
		if n > 0 {
			l = packed[off[i]]
		}
		if single && n > 1 || i > 0 && l != common {
			return 0, false
		}
		common = l
	}
	return common, true
}

// Mapped reports whether the graph's arrays alias a file mapping (LoadFGR).
func (g *Graph) Mapped() bool { return g.unmap != nil }

// Close releases the file mapping backing a graph loaded with LoadFGR; it is
// a no-op for graphs built in memory. After Close every accessor of a mapped
// graph is invalid — callers own the ordering between last use and Close.
// Close is not safe to call concurrently with readers, and not idempotent
// protection is provided beyond the nil check of a second call.
func (g *Graph) Close() error {
	if g.unmap == nil {
		return nil
	}
	u := g.unmap
	g.unmap = nil
	return u()
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%s: |V|=%d |E|=%d |L|=%d density=%.2e)",
		g.name, g.NumVertices(), g.NumEdges(), g.NumLabels(), g.Density())
}

// Stats is a summary row matching Table 1 of the paper.
type Stats struct {
	Name     string
	V, E, L  int
	Density  float64
	Keywords int // distinct keywords, 0 when absent
}

// Stats returns the Table 1 summary of g.
func (g *Graph) Stats() Stats {
	kw := map[Label]struct{}{}
	for _, k := range g.vkw {
		kw[k] = struct{}{}
	}
	for _, k := range g.ekw {
		kw[k] = struct{}{}
	}
	return Stats{
		Name:     g.name,
		V:        g.NumVertices(),
		E:        g.NumEdges(),
		L:        g.NumLabels(),
		Density:  g.Density(),
		Keywords: len(kw),
	}
}
