package graph

import (
	"fmt"
	"math"
	"slices"
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

// labelSets holds one sorted, deduplicated label set per element. While
// shared > 0 the family is one label, data[0], on every element below
// shared and none on the rest: what a loader or generator of a one-label
// family writes, 4 bytes for the whole family. While runs is nil otherwise
// the family is its payload alone: element i < len(data) has the one label
// data[i] and every later element has none — 4 bytes a labelled element and
// no table. The first set that breaks a form moves the family on, from the
// shared label to the payload and from the payload to runs: set i is then
// data[runs[i].at:][:runs[i].n], elements at or beyond len(runs) are empty,
// and a replaced set leaves its old run behind in data for pack to drop.
type labelSets struct {
	shared int
	runs   []run
	data   []Label
	// room is the capacity reserve asked data to take when it next grows.
	room int
}

type run struct{ at, n int32 }

// set makes ls, sorted and deduplicated in place at the tail of data, the
// set of element i.
func (s *labelSets) set(i int, ls []Label) {
	if s.shared > 0 {
		switch {
		case len(ls) == 0 && i >= s.shared:
			return
		case len(ls) == 1 && ls[0] == s.data[0] && i <= s.shared:
			s.shared = max(s.shared, i+1)
			return
		}
		s.unshare()
	}
	if s.runs == nil {
		switch {
		case len(ls) == 0 && i >= len(s.data):
			return
		case len(ls) == 1 && i == 0 && len(s.data) == 0:
			s.data, s.shared = []Label{ls[0]}, 1
			return
		case len(ls) == 1 && i < len(s.data):
			s.data[i] = ls[0]
			return
		case len(ls) == 1 && i == len(s.data):
			s.data = append(s.grow(1), ls[0])
			return
		}
		s.materialize()
	}
	if i >= len(s.runs) {
		if len(ls) == 0 {
			return
		}
		for len(s.runs) <= i {
			s.runs = append(s.runs, run{})
		}
	}
	at := len(s.data)
	s.data = append(s.grow(len(ls)), ls...)
	slices.Sort(s.data[at:])
	s.data = s.data[:at+len(slices.Compact(s.data[at:]))]
	s.runs[i] = run{int32(at), int32(len(s.data) - at)}
}

// grow returns data with room for n more labels. A full payload doubles, so
// the copies it outgrows add up to less than its final capacity; append's
// 1.25x steps would leave four times that behind.
func (s *labelSets) grow(n int) []Label {
	if len(s.data)+n <= cap(s.data) {
		return s.data
	}
	return append(make([]Label, 0, max(2*cap(s.data), len(s.data)+n, s.room)), s.data...)
}

// unshare writes the shared label out once per element, leaving a
// payload-only family.
func (s *labelSets) unshare() {
	l, n := s.data[0], s.shared
	s.data, s.shared = s.data[:0], 0
	s.data = s.grow(n)[:n]
	for i := range s.data {
		s.data[i] = l
	}
}

// materialize gives a payload-only family its run table.
func (s *labelSets) materialize() {
	s.runs = make([]run, len(s.data))
	for i := range s.runs {
		s.runs[i] = run{int32(i), 1}
	}
}

// pack returns the sets of elements [0,count) in the Graph's form: one
// packed payload — data itself when every set was written once and in
// element order, which is what loaders and generators do — and an offsets
// array of length count+1, nil when every element has exactly one label or
// none has any (graph.go, "payload-only"). A payload-only family whose
// elements all carry the same label comes out as that label once.
func (s *labelSets) pack(count int) (off []int32, packed []Label) {
	if s.shared > 0 {
		if s.shared == count {
			return nil, s.data
		}
		s.unshare() // a labelled prefix, which the payload-only form below cannot hold either
	}
	if s.runs == nil {
		if len(s.data) == 0 || len(s.data) == count {
			return nil, shareOne(s.data)
		}
		s.materialize() // a labelled prefix of an otherwise unlabelled family
	}
	off = make([]int32, count+1)
	inOrder, oneEach := true, len(s.runs) == count
	for i, r := range s.runs {
		inOrder = inOrder && (r.n == 0 || r.at == off[i])
		oneEach = oneEach && r.n == 1
		off[i+1] = off[i] + r.n
	}
	for i := len(s.runs); i < count; i++ {
		off[i+1] = off[i]
	}
	total := off[count]
	if inOrder && int(total) == len(s.data) {
		packed = s.data
	} else {
		packed = make([]Label, 0, total)
		for _, r := range s.runs {
			packed = append(packed, s.data[r.at:r.at+r.n]...)
		}
	}
	if oneEach || total == 0 {
		return nil, shareOne(packed)
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

// reserve pre-sizes the edge arrays for m more edges (by make, not
// slices.Grow: under -race the latter allocates the elements twice) and
// sizes the vertex label payload for n more labels when it next grows. An
// array left to grow by append leaves its outgrown copies behind, and no
// later allocation of a load is small enough to reuse them. The payload
// waits because a one-label family never has one: its label is held once
// (labelSets), so n labels are allocated only if the family leaves that
// form. A payload left unreserved doubles as it fills (labelSets.grow); the
// edge label payload always is, as a count of edges says nothing of their
// labels.
func (b *Builder) reserve(m, n int) {
	b.esrc = append(make([]VertexID, 0, len(b.esrc)+m), b.esrc...)
	b.edst = append(make([]VertexID, 0, len(b.edst)+m), b.edst...)
	b.vlab.room = max(len(b.vlab.data), b.vlab.shared) + n
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
// ownership of the builder's arrays — Build allocates the neighbor
// adjacency and nothing else that grows with the graph; the edge-id index
// waits for its first reader (edgeIndex) — and the builder is left empty
// (same name and dictionary), so nothing done to it afterwards reaches the
// Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{name: b.name, dict: b.dict, esrc: b.esrc, edst: b.edst, hasKW: b.hasKW}
	g.vlabOff, g.vlab = b.vlab.pack(b.nv)
	g.elabOff, g.elab = b.elab.pack(len(b.esrc))
	g.vkwOff, g.vkw = b.vkw.pack(b.nv)
	g.ekwOff, g.ekw = b.ekw.pack(len(b.esrc))
	g.index(b.nv)
	*b = Builder{name: b.name, dict: b.dict}
	return g
}

// index completes a graph whose endpoint and label arrays are in place, over
// nv vertices: the neighbor adjacency, an edge-id index that waits for its
// first reader, the label count, and what finalize derives. Build and Reduce
// end with it.
func (g *Graph) index(nv int) {
	g.adjOff, g.adjV = buildAdjacency(nv, g.esrc, g.edst)
	g.adjE = new(edgeIndex)
	g.numLabel = countLabels(g.vlab, g.elab)
	g.finalize()
}

// buildAdjacency returns the CSR neighbor adjacency of the edges
// (esrc[id], edst[id]) over n vertices, every run sorted, allocating the two
// arrays it returns and nothing else: it scatters each endpoint into its
// owner's run, with off as the cursor, then sorts each run of plain int32s.
// Edge ids are left to indexEdges.
func buildAdjacency(n int, esrc, edst []VertexID) (off []int32, adjV []VertexID) {
	off = make([]int32, n+1)
	for id := range esrc {
		off[esrc[id]+1]++
		off[edst[id]+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adjV = make([]VertexID, 2*len(esrc))
	for id := range esrc {
		s, d := esrc[id], edst[id]
		adjV[off[s]] = d
		off[s]++
		adjV[off[d]] = s
		off[d]++
	}
	// Every cursor stopped at the start of the next run.
	copy(off[1:], off[:n])
	off[0] = 0
	for u := 0; u < n; u++ {
		slices.Sort(adjV[off[u]:off[u+1]])
	}
	return off, adjV
}

// indexEdges returns the edge-id column of the adjacency off of the edges
// (esrc[id], edst[id]), esrc[id] < edst[id]: every run ordered by
// (neighbor, edge id), the order of its neighbors in adjV. It allocates the
// 2|E| ids and one |V| cursor, at, and compares nothing. A run is a lower
// part, the edges to smaller neighbors, then an upper part. Pass 1 stages
// each edge id in its lower endpoint's upper part, in id order. Pass 2 walks
// the owners ascending and moves each staged id into its higher endpoint's
// lower part, which therefore comes out ordered by (neighbor, id); pass 3
// walks the lower parts the same way and writes each id back into its lower
// endpoint's upper part, ordered likewise. Each pass reads rows the one
// before it wrote and writes only rows nothing will read again.
func indexEdges(off []int32, esrc, edst []VertexID) []EdgeID {
	n := len(off) - 1
	adjE := make([]EdgeID, 2*len(esrc))
	at := slices.Clone(off[:n])
	for _, d := range edst {
		at[d]++
	}
	// at[u] is where u's upper part starts.
	for id, s := range esrc {
		adjE[at[s]] = EdgeID(id)
		at[s]++
	}
	copy(at, off[:n])
	for s := range n {
		// Every smaller owner has filled s's lower part: at[s] ends it.
		for _, id := range adjE[at[s]:off[s+1]] {
			d := edst[id]
			adjE[at[d]] = id
			at[d]++
		}
	}
	// at[u] is where u's upper part starts again.
	for d := range n {
		for _, id := range adjE[off[d]:at[d]] {
			s := esrc[id]
			adjE[at[s]] = id
			at[s]++
		}
	}
	return adjE
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
	_, ok := slices.BinarySearch(ls, l)
	return ok
}
