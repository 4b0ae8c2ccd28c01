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

// labelSets holds one sorted, deduplicated label set per element. While runs
// is nil the family is its payload alone: element i < len(data) has the one
// label data[i] and every later element has none, which is what a loader or
// generator of a one-label-each or an unlabelled family writes — 4 bytes a
// labelled element and no table. The first set that breaks that shape
// materializes runs: set i is then data[runs[i].at:][:runs[i].n], elements
// at or beyond len(runs) are empty, and a replaced set leaves its old run
// behind in data for pack to drop.
type labelSets struct {
	runs []run
	data []Label
}

type run struct{ at, n int32 }

// set makes ls, sorted and deduplicated in place at the tail of data, the
// set of element i.
func (s *labelSets) set(i int, ls []Label) {
	if s.runs == nil {
		switch {
		case len(ls) == 0 && i >= len(s.data):
			return
		case len(ls) == 1 && i < len(s.data):
			s.data[i] = ls[0]
			return
		case len(ls) == 1 && i == len(s.data):
			s.data = append(s.data, ls[0])
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
	s.data = append(s.data, ls...)
	slices.Sort(s.data[at:])
	s.data = s.data[:at+len(slices.Compact(s.data[at:]))]
	s.runs[i] = run{int32(at), int32(len(s.data) - at)}
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
// none has any (graph.go, "payload-only").
func (s *labelSets) pack(count int) (off []int32, packed []Label) {
	if s.runs == nil {
		if len(s.data) == 0 || len(s.data) == count {
			return nil, s.data
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
		off = nil
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
// slices.Grow: under -race the latter allocates the m elements twice).
func (b *Builder) reserve(m int) {
	b.esrc = append(make([]VertexID, 0, len(b.esrc)+m), b.esrc...)
	b.edst = append(make([]VertexID, 0, len(b.edst)+m), b.edst...)
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
// ownership of the builder's arrays — Build allocates the adjacency and
// nothing else that grows with the graph — and the builder is left empty
// (same name and dictionary), so nothing done to it afterwards reaches the
// Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{name: b.name, dict: b.dict, esrc: b.esrc, edst: b.edst, hasKW: b.hasKW}
	g.vlabOff, g.vlab = b.vlab.pack(b.nv)
	g.elabOff, g.elab = b.elab.pack(len(b.esrc))
	g.vkwOff, g.vkw = b.vkw.pack(b.nv)
	g.ekwOff, g.ekw = b.ekw.pack(len(b.esrc))
	g.adjOff, g.adjV, g.adjE = buildAdjacency(b.nv, g.esrc, g.edst)
	g.numLabel = countLabels(g.vlab, g.elab)
	g.finalize()
	*b = Builder{name: b.name, dict: b.dict}
	return g
}

// buildAdjacency returns the CSR adjacency of the edges (esrc[id], edst[id])
// over n vertices, every run ordered by (neighbor, edge id), allocating the
// three arrays it returns and nothing else. A counting-sort scatter in
// edge-id order, with off itself as the cursor, leaves the incident edge ids
// of each vertex ascending in what becomes adjE; adjV is the other endpoint
// of each, and a run whose neighbors do not come out ascending — ids of
// equal neighbors already do — is ordered in place (adjacencyRun.order).
func buildAdjacency(n int, esrc, edst []VertexID) (off []int32, adjV []VertexID, adjE []EdgeID) {
	off = make([]int32, n+1)
	for id := range esrc {
		off[esrc[id]+1]++
		off[edst[id]+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adjE = make([]EdgeID, 2*len(esrc))
	for id := range esrc {
		s, d := esrc[id], edst[id]
		adjE[off[s]] = EdgeID(id)
		off[s]++
		adjE[off[d]] = EdgeID(id)
		off[d]++
	}
	// Every cursor stopped at the start of the next run.
	copy(off[1:], off[:n])
	off[0] = 0

	adjV = make([]VertexID, len(adjE))
	run := new(adjacencyRun) // one for every sort.Sort call
	for u := 0; u < n; u++ {
		run.nbs, run.ids = adjV[off[u]:off[u+1]], adjE[off[u]:off[u+1]]
		ordered := true
		for i, id := range run.ids {
			run.nbs[i] = esrc[id] ^ edst[id] ^ VertexID(u) // the other endpoint
			ordered = ordered && (i == 0 || run.nbs[i-1] <= run.nbs[i])
		}
		if !ordered {
			run.order()
		}
	}
	return off, adjV, adjE
}

// adjacencyRun is the incidences of one vertex: neighbors and edge ids, side
// by side.
type adjacencyRun struct {
	nbs []VertexID
	ids []EdgeID
}

// order sorts r by (neighbor, edge id), in place: by insertion while the run
// is short — a few edges out of place in id order is what generators and
// hand-written files produce — and by sort.Sort, O(d log d) on a hub in any
// order, beyond that.
func (r *adjacencyRun) order() {
	if len(r.nbs) > 24 {
		sort.Sort(r)
		return
	}
	for i := 1; i < len(r.nbs); i++ {
		w, id := r.nbs[i], r.ids[i]
		j := i
		for ; j > 0 && r.nbs[j-1] > w; j-- { // stable: the ids of one neighbor stay ascending
			r.nbs[j], r.ids[j] = r.nbs[j-1], r.ids[j-1]
		}
		r.nbs[j], r.ids[j] = w, id
	}
}

func (r *adjacencyRun) Len() int { return len(r.nbs) }
func (r *adjacencyRun) Less(i, j int) bool {
	return r.nbs[i] < r.nbs[j] || r.nbs[i] == r.nbs[j] && r.ids[i] < r.ids[j]
}
func (r *adjacencyRun) Swap(i, j int) {
	r.nbs[i], r.nbs[j] = r.nbs[j], r.nbs[i]
	r.ids[i], r.ids[j] = r.ids[j], r.ids[i]
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
