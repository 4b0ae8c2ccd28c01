package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// Its state is already the Graph's layout — flat endpoint arrays, packed
// label payloads addressed by int32 runs — so Build hands the arrays over
// instead of copying them, and a vertex or edge without labels or keywords
// costs no label storage at all (DESIGN.md §13, "Ingest"). The zero value
// is ready to use.
type Builder struct {
	name       string
	dict       *Dictionary
	nv         int
	esrc, edst []VertexID // edge id -> endpoints, esrc[id] < edst[id]
	vlab, elab labelSets
	vkw, ekw   labelSets
	hasKW      bool
}

// labelSets holds one sorted, deduplicated label set per element. Set i is
// data[runs[i].at:][:runs[i].n]; elements at or beyond len(runs) are empty,
// so the tables are allocated by the first non-empty set. A replaced set
// leaves its old run behind in data; pack drops it.
type labelSets struct {
	runs []run
	data []Label
}

type run struct{ at, n int32 }

// set makes ls, sorted and deduplicated in place at the tail of data, the
// set of element i.
func (s *labelSets) set(i int, ls []Label) {
	if i >= len(s.runs) {
		if len(ls) == 0 {
			return
		}
		for len(s.runs) <= i {
			s.runs = append(s.runs, run{})
		}
	}
	at := len(s.data)
	s.data = append(s.data, ls...)
	slices.Sort(s.data[at:])
	s.data = s.data[:at+len(slices.Compact(s.data[at:]))]
	s.runs[i] = run{int32(at), int32(len(s.data) - at)}
}

// pack returns the sets of elements [0,count) as an offsets array of length
// count+1 and one packed payload — data itself when every set was written
// once and in element order, which is what loaders and generators do.
func (s *labelSets) pack(count int) (off []int32, packed []Label) {
	off = make([]int32, count+1)
	inOrder := true
	for i, r := range s.runs {
		inOrder = inOrder && (r.n == 0 || r.at == off[i])
		off[i+1] = off[i] + r.n
	}
	for i := len(s.runs); i < count; i++ {
		off[i+1] = off[i]
	}
	if inOrder && int(off[count]) == len(s.data) {
		return off, s.data
	}
	packed = make([]Label, 0, off[count])
	for _, r := range s.runs {
		packed = append(packed, s.data[r.at:r.at+r.n]...)
	}
	return off, packed
}

// NewBuilder returns a Builder for a graph with the given dataset name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, dict: NewDictionary()}
}

// Dict returns the builder's label dictionary so callers can intern labels.
func (b *Builder) Dict() *Dictionary { return b.dict }

// AddVertex adds a vertex with the given labels and returns its ID.
func (b *Builder) AddVertex(labels ...Label) VertexID {
	id := b.nv
	b.nv++
	b.vlab.set(id, labels)
	return VertexID(id)
}

// SetVertexLabels replaces the label set of v.
func (b *Builder) SetVertexLabels(v VertexID, labels ...Label) {
	b.vlab.set(b.vertex(v), labels)
}

// vertex returns v as an index, panicking on an ID the builder never issued.
func (b *Builder) vertex(v VertexID) int {
	if v < 0 || int(v) >= b.nv {
		panic(fmt.Sprintf("graph: unknown vertex %d", v))
	}
	return int(v)
}

// EnsureVertices grows the vertex set so that IDs [0,n) exist, adding
// unlabeled vertices as needed.
func (b *Builder) EnsureVertices(n int) {
	b.nv = max(b.nv, n)
}

// reserve pre-sizes the edge arrays for m more edges.
func (b *Builder) reserve(m int) {
	b.esrc = slices.Grow(b.esrc, m)
	b.edst = slices.Grow(b.edst, m)
}

// AddEdge adds an undirected edge between u and v with the given labels and
// returns its ID. Self-loops are rejected with an error, matching
// Definition 1 of the paper.
func (b *Builder) AddEdge(u, v VertexID, labels ...Label) (EdgeID, error) {
	if u == v {
		return NilEdge, fmt.Errorf("graph: self-loop on vertex %d rejected", u)
	}
	if int(u) >= b.nv || int(v) >= b.nv || u < 0 || v < 0 {
		return NilEdge, fmt.Errorf("graph: edge (%d,%d) references unknown vertex", u, v)
	}
	if len(b.esrc) == math.MaxInt32/2 {
		return NilEdge, fmt.Errorf("graph: more than %d edges", math.MaxInt32/2)
	}
	if u > v {
		u, v = v, u
	}
	id := len(b.esrc)
	b.esrc = append(b.esrc, u)
	b.edst = append(b.edst, v)
	b.elab.set(id, labels)
	return EdgeID(id), nil
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// generators that construct edges from known-valid IDs.
func (b *Builder) MustAddEdge(u, v VertexID, labels ...Label) EdgeID {
	id, err := b.AddEdge(u, v, labels...)
	if err != nil {
		panic(err)
	}
	return id
}

// SetVertexKeywords attaches a keyword set to v.
func (b *Builder) SetVertexKeywords(v VertexID, kws ...Label) {
	b.vkw.set(b.vertex(v), kws)
	b.hasKW = true
}

// SetEdgeKeywords attaches a keyword set to edge id.
func (b *Builder) SetEdgeKeywords(id EdgeID, kws ...Label) {
	_ = b.esrc[id] // panics on an ID the builder never issued
	b.ekw.set(int(id), kws)
	b.hasKW = true
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return b.nv }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.esrc) }

// Build freezes the builder into an immutable Graph. The Graph takes
// ownership of the builder's arrays, and the builder is left empty (same
// name and dictionary), so nothing done to it afterwards reaches the Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{name: b.name, dict: b.dict, esrc: b.esrc, edst: b.edst}
	g.vlabOff, g.vlab = b.vlab.pack(b.nv)
	g.elabOff, g.elab = b.elab.pack(len(b.esrc))
	g.adjOff, g.adjV, g.adjE = buildAdjacency(b.nv, g.esrc, g.edst)
	g.numLabel = countLabels(g.vlab, g.elab)
	if b.hasKW {
		g.vkwOff, g.vkw = b.vkw.pack(b.nv)
		g.ekwOff, g.ekw = b.ekw.pack(len(b.esrc))
	}
	g.finalize()
	*b = Builder{name: b.name, dict: b.dict}
	return g
}

// buildAdjacency returns the CSR adjacency of the edges (esrc[id], edst[id])
// over n vertices, every run ordered by (neighbor, edge id), without a
// comparison sort: a counting-sort scatter in edge-id order leaves each
// vertex's incident edge ids ascending, and transposing that — vertices in
// ascending order, each writing itself into the runs of its neighbors —
// fills every run in (neighbor, edge id) order.
func buildAdjacency(n int, esrc, edst []VertexID) (off []int32, adjV []VertexID, adjE []EdgeID) {
	off = make([]int32, n+1)
	for id := range esrc {
		off[esrc[id]+1]++
		off[edst[id]+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	cursor := make([]int32, n)
	copy(cursor, off)
	incident := make([]EdgeID, 2*len(esrc))
	for id := range esrc {
		s, d := esrc[id], edst[id]
		incident[cursor[s]] = EdgeID(id)
		cursor[s]++
		incident[cursor[d]] = EdgeID(id)
		cursor[d]++
	}
	copy(cursor, off)
	adjV = make([]VertexID, 2*len(esrc))
	adjE = make([]EdgeID, 2*len(esrc))
	for u := 0; u < n; u++ {
		for _, id := range incident[off[u]:off[u+1]] {
			w := esrc[id] ^ edst[id] ^ VertexID(u) // the other endpoint
			i := cursor[w]
			adjV[i], adjE[i] = VertexID(u), id
			cursor[w]++
		}
	}
	return off, adjV, adjE
}

// countLabels returns the number of distinct labels in the payloads: a
// bitset over [min,max] when that range is proportionate to the payload
// (dictionary labels are dense from 0), a sorted copy otherwise.
func countLabels(payloads ...[]Label) int {
	lo, hi, total := Label(math.MaxInt32), Label(math.MinInt32), 0
	for _, p := range payloads {
		for _, l := range p {
			lo, hi = min(lo, l), max(hi, l)
		}
		total += len(p)
	}
	if total == 0 {
		return 0
	}
	if width := int64(hi) - int64(lo) + 1; width <= 64*int64(total)+1<<16 {
		seen := make([]uint64, (width+63)/64)
		n := 0
		for _, p := range payloads {
			for _, l := range p {
				i := uint32(l - lo)
				n += int(^seen[i/64] >> (i % 64) & 1)
				seen[i/64] |= 1 << (i % 64)
			}
		}
		return n
	}
	all := slices.Concat(payloads...)
	slices.Sort(all)
	return len(slices.Compact(all))
}

// ContainsLabel reports whether sorted label set ls contains l.
func ContainsLabel(ls []Label, l Label) bool {
	i := sort.Search(len(ls), func(i int) bool { return ls[i] >= l })
	return i < len(ls) && ls[i] == l
}
