// Package subgraph implements the three subgraph representations of the
// Fractal computation model (Section 3, Figure 1): vertex-induced,
// edge-induced, and pattern-induced embeddings, together with their
// extension-candidate generation and duplicate-free canonical-generation
// checks.
//
// Duplicate freedom. For vertex- and edge-induced embeddings, every subgraph
// is generated exactly once by accepting only its canonical generation
// sequence: the order that always appends the smallest-identifier element
// connected to the current prefix (with the globally smallest element
// first). Given a canonical prefix m₀,…,m₍ₖ₋₁₎, a candidate w extends it
// canonically iff w > m₀ and w > mᵢ for every i > f, where f is the first
// prefix index adjacent to w — an O(1) test with a suffix-maximum table.
// Pattern-induced embeddings instead use the symmetry-breaking conditions of
// the pattern plan (Grochow–Kellis), checked during candidate generation.
package subgraph

import (
	"fmt"
	"math/bits"

	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// Kind selects the extension strategy of an embedding.
type Kind uint8

const (
	// VertexInduced grows vertex-by-vertex; every edge between the new
	// vertex and the current vertices is included (motifs, cliques).
	VertexInduced Kind = iota
	// EdgeInduced grows edge-by-edge (FSM, keyword search).
	EdgeInduced
	// PatternInduced grows vertex-by-vertex guided by a reference pattern
	// (subgraph querying and matching).
	PatternInduced
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case VertexInduced:
		return "vertex-induced"
	case EdgeInduced:
		return "edge-induced"
	case PatternInduced:
		return "pattern-induced"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Word is one extension unit: a vertex ID for vertex- and pattern-induced
// embeddings, an edge ID for edge-induced ones.
type Word = int32

// Embedding is the mutable subgraph under enumeration on one execution core.
// It is a stack: Push extends by one word, Pop reverts the last extension.
// Embeddings are not safe for concurrent use; each core owns one and rebuilds
// it by Replay when work is stolen.
type Embedding struct {
	g    *graph.Graph
	kind Kind
	plan *pattern.Plan

	words    []Word
	vertices []graph.VertexID
	// edges are the embedding's edges in discovery order, edgesAt[i] the
	// number level i added. An edge-induced Push appends its edge and count,
	// a vertex- or pattern-induced one nothing. resolveEdges, which every
	// reader of edges calls, fills in the rest, so counting never reads an
	// edge id.
	edges   []graph.EdgeID
	edgesAt []int

	// tailMax[i] is the max word of words[i:] (vertex- and edge-induced).
	tailMax []Word
	// newAt[i] is the number of vertices edge-induced level i added.
	newAt []int

	// Epoch-stamped scratch for Extensions. An entry of stampV/stampE is
	// "seen this call" iff it equals gen; bumping gen invalidates every
	// entry in O(1), so no per-call clear and no hashing. vfirst[v] holds
	// the first member-edge index covering vertex v (valid only while
	// stampV[v] == gen). The arrays are sized |V(G)| / |E(G)| and allocated
	// lazily on the first Extensions call.
	gen    uint32
	stampV []uint32
	stampE []uint32
	vfirst []int32

	// common[v] counts the common neighbors of the local-count kernel's
	// root and v in its distance-2 pass (LocalTerms.far), one byte per
	// vertex, allocated on that pass's first call.
	common []uint8

	// Candidate scratch: candList[i] is the i-th distinct non-member
	// candidate discovered, candFirst[i] its first adjacent member index.
	candList  []Word
	candFirst []int32
	scratchE  []graph.EdgeID

	// Pattern-induced scratch: ping-pong buffers for the k-way anchor
	// intersection and the anchor ordering.
	pbuf0, pbuf1 []graph.VertexID
	backOrder    []pattern.BackRef

	// custom, when non-nil, overrides extension-candidate generation
	// (Appendix B; see CustomExtender).
	custom CustomExtender

	memo classMemo

	// charged counts the extension tests workflow primitives booked on the
	// embedding's behalf (Charge).
	charged int64
}

// New returns an empty embedding over g. plan is required iff kind is
// PatternInduced.
func New(g *graph.Graph, kind Kind, plan *pattern.Plan) *Embedding {
	if (kind == PatternInduced) != (plan != nil) {
		panic("subgraph: plan must be given exactly for pattern-induced embeddings")
	}
	return &Embedding{g: g, kind: kind, plan: plan}
}

// Charge books n extension tests done on the embedding's behalf by a
// workflow primitive that reads the graph itself — the decomposition sweep's
// per-root kernel — so the work shows in the step's EC like the extension
// kernels' own tests.
func (e *Embedding) Charge(n int64) { e.charged += n }

// Charged returns the extension tests booked with Charge so far.
func (e *Embedding) Charged() int64 { return e.charged }

// Graph returns the input graph.
func (e *Embedding) Graph() *graph.Graph { return e.g }

// Kind returns the extension strategy.
func (e *Embedding) Kind() Kind { return e.kind }

// Plan returns the matching plan (pattern-induced only, else nil).
func (e *Embedding) Plan() *pattern.Plan { return e.plan }

// Len returns the number of words pushed (the extension depth).
func (e *Embedding) Len() int { return len(e.words) }

// Words returns the pushed words in order; callers must not mutate.
func (e *Embedding) Words() []Word { return e.words }

// Vertices returns the embedding's vertices in discovery order.
func (e *Embedding) Vertices() []graph.VertexID { return e.vertices }

// Edges returns the embedding's edges in discovery order.
func (e *Embedding) Edges() []graph.EdgeID {
	e.resolveEdges()
	return e.edges
}

// NumVertices returns |V(S)| of the embedding.
func (e *Embedding) NumVertices() int { return len(e.vertices) }

// NumEdges returns |E(S)| of the embedding. Like Edges, it resolves the
// edge ids of a vertex- or pattern-induced embedding.
func (e *Embedding) NumEdges() int {
	e.resolveEdges()
	return len(e.edges)
}

// IsClique reports whether every two of the embedding's vertices are
// adjacent in its graph: the clique check of Listing 2 (fractal.CliqueFilter).
// Parallel edges count once, and only neighbors are read. The newest vertex
// is tested first: under Expand(1).Filter(...) it is the only one the last
// check has not covered.
func IsClique(e *Embedding) bool {
	vs := e.vertices
	for j := len(vs) - 1; j > 0; j-- {
		for _, u := range vs[:j] {
			if !e.g.HasEdge(u, vs[j]) {
				return false
			}
		}
	}
	return true
}

// InitialDomain returns the number of depth-0 extension words: |V(G)| for
// vertex- and pattern-induced embeddings, |E(G)| for edge-induced ones.
func (e *Embedding) InitialDomain() int {
	if e.kind == EdgeInduced {
		return e.g.NumEdges()
	}
	return e.g.NumVertices()
}

// ValidInitial reports whether word w is a valid depth-0 extension: always
// true except for pattern-induced embeddings, which constrain the first
// bound vertex by the plan's level-0 label.
func (e *Embedding) ValidInitial(w Word) bool {
	if e.kind != PatternInduced {
		return true
	}
	want := e.plan.VLabels[0]
	return want == pattern.NoLabel ||
		graph.ContainsLabel(e.g.VertexLabels(graph.VertexID(w)), want)
}

// Push extends the embedding by w. w must come from Extensions (or
// ValidInitial at depth 0); Push does not re-validate.
func (e *Embedding) Push(w Word) {
	e.memo.resolved = false
	if e.kind == EdgeInduced {
		e.pushEdge(graph.EdgeID(w))
	} else {
		e.vertices = append(e.vertices, graph.VertexID(w))
	}
	e.words = append(e.words, w)
	e.updateTails()
	if e.custom != nil {
		e.custom.Pushed(e, w)
	}
}

// Pop reverts the most recent Push.
func (e *Embedding) Pop() {
	e.memo.resolved = false
	if e.custom != nil {
		e.custom.Popped(e)
	}
	k := len(e.words) - 1
	if k < len(e.edgesAt) { // the level's edges are resolved
		e.edges = e.edges[:len(e.edges)-e.edgesAt[k]]
		e.edgesAt = e.edgesAt[:k]
	}
	if e.kind == EdgeInduced {
		e.vertices = e.vertices[:len(e.vertices)-e.newAt[k]]
		e.newAt = e.newAt[:k]
	} else {
		e.vertices = e.vertices[:k]
	}
	e.words = e.words[:k]
	e.updateTails()
}

// TruncateTo pops until Len() == depth.
func (e *Embedding) TruncateTo(depth int) {
	for len(e.words) > depth {
		e.Pop()
	}
}

// Reset empties the embedding.
func (e *Embedding) Reset() { e.TruncateTo(0) }

// Replay resets the embedding and pushes all of words. Used to rebuild local
// state from a stolen enumeration prefix.
func (e *Embedding) Replay(words []Word) {
	e.Reset()
	for _, w := range words {
		e.Push(w)
	}
}

// resolveEdges appends the edge ids of the vertex levels pushed since it
// last ran. A vertex-induced level adds every edge between its vertex and
// an earlier member, members in order and parallel edges by ascending id; a
// pattern-induced one adds one matching edge per backward reference of the
// plan. Edge-induced levels are resolved as they are pushed.
func (e *Embedding) resolveEdges() {
	for k := len(e.edgesAt); k < len(e.words); k++ {
		ne, v := len(e.edges), e.vertices[k]
		if e.kind == VertexInduced {
			for _, m := range e.vertices[:k] {
				e.edges = e.g.EdgesBetween(v, m, e.edges)
			}
		} else {
			for _, b := range e.plan.Back[k] {
				if id := e.edgeMatching(v, e.vertices[b.Pos], b.ELabel); id != graph.NilEdge {
					e.edges = append(e.edges, id)
				}
			}
		}
		e.edgesAt = append(e.edgesAt, len(e.edges)-ne)
	}
}

func (e *Embedding) pushEdge(id graph.EdgeID) {
	src, dst := e.g.EdgeEndpoints(id)
	e.edges = append(e.edges, id)
	e.edgesAt = append(e.edgesAt, 1)
	nv := len(e.vertices)
	if !e.hasVertex(src) {
		e.vertices = append(e.vertices, src)
	}
	if !e.hasVertex(dst) {
		e.vertices = append(e.vertices, dst)
	}
	e.newAt = append(e.newAt, len(e.vertices)-nv)
}

func (e *Embedding) hasVertex(v graph.VertexID) bool {
	for _, u := range e.vertices {
		if u == v {
			return true
		}
	}
	return false
}

// edgeMatching returns an edge between u and v whose label matches want
// (NoLabel matches any), or NilEdge.
func (e *Embedding) edgeMatching(u, v graph.VertexID, want graph.Label) graph.EdgeID {
	e.scratchE = e.g.EdgesBetween(u, v, e.scratchE[:0])
	for _, id := range e.scratchE {
		if want == pattern.NoLabel || e.g.EdgeLabel(id) == want {
			return id
		}
	}
	return graph.NilEdge
}

// updateTails recomputes the suffix-maximum table after a push or pop.
func (e *Embedding) updateTails() {
	if e.kind == PatternInduced {
		return
	}
	k := len(e.words)
	if cap(e.tailMax) < k {
		e.tailMax = make([]Word, k)
	}
	e.tailMax = e.tailMax[:k]
	for i := k - 1; i >= 0; i-- {
		e.tailMax[i] = e.words[i]
		if i+1 < k && e.tailMax[i+1] > e.tailMax[i] {
			e.tailMax[i] = e.tailMax[i+1]
		}
	}
}

// canonicalOK applies the O(1) canonical-generation test for candidate w
// whose first adjacent member index is f.
func (e *Embedding) canonicalOK(w Word, f int) bool {
	if w <= e.words[0] {
		return false
	}
	if f+1 < len(e.words) && w <= e.tailMax[f+1] {
		return false
	}
	return true
}

// Extensions computes the valid extension words of the current embedding,
// appending them to dst and returning the extended slice together with the
// number of candidate tests performed (the paper's extension cost, EC).
// The embedding must be non-empty; depth-0 domains are handled by the
// engine via InitialDomain/ValidInitial.
//
// The appended words are sorted ascending and duplicate-free — an API
// guarantee (enumeration traces are deterministic and the differential
// oracle compares outputs byte-for-byte), not an implementation accident.
// Extensions is allocation-free in steady state: results go into dst,
// candidates into epoch-stamped scratch retained by the embedding.
//
// The tested count for vertex- and edge-induced embeddings is the number of
// distinct non-member candidates subjected to the canonicality check. For
// pattern-induced embeddings it is the number of vertices that survive the
// k-way intersection of the backward anchors' adjacency lists (the
// candidates subjected to the member/label/symmetry checks); the seed
// implementation instead counted every neighbor of the least-degree anchor,
// so pattern EC values are not comparable across that rewrite.
func (e *Embedding) Extensions(dst []Word) ([]Word, int) {
	if e.custom != nil {
		return e.custom.Extensions(e, dst)
	}
	return e.DefaultExtensions(dst)
}

// DefaultExtensions computes the built-in extension candidates regardless
// of any installed custom extender — the hook for extenders that refine the
// default strategy (e.g. sampling) rather than replace it.
func (e *Embedding) DefaultExtensions(dst []Word) ([]Word, int) {
	switch e.kind {
	case VertexInduced:
		return e.vertexExtensions(dst)
	case EdgeInduced:
		return e.edgeExtensions(dst)
	default:
		return e.patternExtensions(dst)
	}
}

// bumpGen starts a new stamp epoch. On the (rare) uint32 wraparound the
// stamp arrays are cleared so stale entries from 2^32 calls ago cannot read
// as current.
func (e *Embedding) bumpGen() uint32 {
	e.gen++
	if e.gen == 0 {
		clear(e.stampV)
		clear(e.stampE)
		e.gen = 1
	}
	return e.gen
}

func (e *Embedding) ensureVStamp() {
	if len(e.stampV) < e.g.NumVertices() {
		e.stampV = make([]uint32, e.g.NumVertices())
	}
	if len(e.vfirst) < e.g.NumVertices() {
		e.vfirst = make([]int32, e.g.NumVertices())
	}
}

func (e *Embedding) ensureEStamp() {
	if len(e.stampE) < e.g.NumEdges() {
		e.stampE = make([]uint32, e.g.NumEdges())
	}
}

func (e *Embedding) vertexExtensions(dst []Word) ([]Word, int) {
	e.ensureVStamp()
	gen := e.bumpGen()
	// Members are stamped first so the discovery scan below skips them
	// without a membership test.
	for _, m := range e.vertices {
		e.stampV[m] = gen
	}
	e.candList = e.candList[:0]
	e.candFirst = e.candFirst[:0]
	for i, m := range e.vertices {
		for _, u := range e.g.Neighbors(m) {
			if e.stampV[u] == gen {
				continue
			}
			e.stampV[u] = gen
			e.candList = append(e.candList, Word(u))
			e.candFirst = append(e.candFirst, int32(i))
		}
	}
	tested := len(e.candList)
	for i, w := range e.candList {
		if e.canonicalOK(w, int(e.candFirst[i])) {
			dst = append(dst, w)
		}
	}
	sortWords(dst)
	return dst, tested
}

func (e *Embedding) edgeExtensions(dst []Word) ([]Word, int) {
	e.ensureVStamp()
	e.ensureEStamp()
	gen := e.bumpGen()
	// Stamp member edges, and record per endpoint the first member index
	// covering it: the first member adjacent to a candidate edge x is then
	// min(vfirst[x.Src], vfirst[x.Dst]) — O(1) instead of a member scan.
	for i := 0; i < len(e.words); i++ {
		id := graph.EdgeID(e.words[i])
		e.stampE[id] = gen
		src, dst := e.g.EdgeEndpoints(id)
		if e.stampV[src] != gen {
			e.stampV[src] = gen
			e.vfirst[src] = int32(i)
		}
		if e.stampV[dst] != gen {
			e.stampV[dst] = gen
			e.vfirst[dst] = int32(i)
		}
	}
	e.candList = e.candList[:0]
	e.candFirst = e.candFirst[:0]
	// Candidates: edges incident to covered vertices.
	for _, v := range e.vertices {
		for _, id := range e.g.IncidentEdges(v) {
			if e.stampE[id] == gen {
				continue
			}
			e.stampE[id] = gen
			xs, xd := e.g.EdgeEndpoints(id)
			f := int32(len(e.words))
			if e.stampV[xs] == gen && e.vfirst[xs] < f {
				f = e.vfirst[xs]
			}
			if e.stampV[xd] == gen && e.vfirst[xd] < f {
				f = e.vfirst[xd]
			}
			e.candList = append(e.candList, Word(id))
			e.candFirst = append(e.candFirst, f)
		}
	}
	tested := len(e.candList)
	for i, x := range e.candList {
		if e.canonicalOK(x, int(e.candFirst[i])) {
			dst = append(dst, x)
		}
	}
	sortWords(dst)
	return dst, tested
}

// patternExtensions computes the candidates of level k as a k-way
// intersection of the backward anchors' adjacency lists, smallest anchor
// first, on internal/graph's set-operation kernels. The plan's
// symmetry-breaking conditions are pushed down into candidate generation:
// the vertex-id window they imply (Plan.BindingBounds) clamps the first
// anchor's adjacency range before any intersection work, so symmetry
// breaking prunes candidate generation rather than filtering its output.
// An anchor with an edge-label constraint filters the survivors of its
// intersection. For induced plans the adjacency of every bound non-anchor
// vertex is subtracted from the candidate set before it counts as tested.
// Candidates emerge sorted and duplicate-free (parallel edges collapse as
// duplicate runs inside the kernels), so no final sort is needed; only the
// cheap member and vertex-label filters run over the survivors, whose count
// is the reported extension cost.
func (e *Embedding) patternExtensions(dst []Word) ([]Word, int) {
	k := len(e.words)
	if k >= len(e.plan.Order) {
		return dst, 0
	}
	back := e.plan.Back[k]
	if len(back) == 0 {
		return dst, 0
	}
	lo, hi := e.plan.BindingBounds(k, e.vertices)
	if lo > hi {
		return dst, 0
	}
	// Order anchors by ascending degree so the intersection starts from the
	// smallest adjacency list and the working set shrinks fastest.
	e.backOrder = append(e.backOrder[:0], back...)
	ord := e.backOrder
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && e.g.Degree(e.vertices[ord[j].Pos]) < e.g.Degree(e.vertices[ord[j-1].Pos]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	cur := e.anchorCandidates(e.vertices[ord[0].Pos], ord[0].ELabel, lo, hi, e.pbuf0[:0])
	buf := e.pbuf1
	for _, b := range ord[1:] {
		if len(cur) == 0 {
			break
		}
		v := e.vertices[b.Pos]
		nxt := graph.IntersectSorted(cur, e.g.Neighbors(v), buf[:0])
		if b.ELabel != pattern.NoLabel {
			nxt = e.keepLabelled(nxt, v, b.ELabel)
		}
		cur, buf = nxt, cur
	}
	if e.plan.Induced {
		// Non-adjacency is part of candidate generation for induced plans:
		// each non-anchor bound vertex's adjacency is subtracted from the
		// candidate set, so extensions that would violate induced semantics
		// never surface as tested work. Non-adjacency is structural: every
		// edge label counts.
		nonAdj := (uint32(1)<<uint(k) - 1) &^ e.plan.BackMask[k]
		for m := nonAdj; m != 0 && len(cur) > 0; m &= m - 1 {
			nxt := graph.DiffSorted(cur, e.g.Neighbors(e.vertices[bits.TrailingZeros32(m)]), buf[:0])
			cur, buf = nxt, cur
		}
	}
	e.pbuf0, e.pbuf1 = cur, buf // retain grown buffers for reuse
	tested := len(cur)
	want := e.plan.VLabels[k]
	for _, u := range cur {
		if e.hasVertex(u) {
			continue
		}
		if want != pattern.NoLabel && !graph.ContainsLabel(e.g.VertexLabels(u), want) {
			continue
		}
		// Symmetry conditions are satisfied by construction (the [lo, hi]
		// clamp implements CheckBinding exactly); the kernel relies on that
		// rather than re-checking per candidate.
		dst = append(dst, Word(u))
	}
	return dst, tested
}

// anchorCandidates appends the distinct neighbors of av inside the vertex-id
// window [lo, hi] connected by an edge whose label matches elabel (NoLabel =
// any) to dst. Adjacency runs are sorted, so the scan gallops to the first
// in-window neighbor, stops at the first beyond it, and the result is sorted
// and duplicate-free.
func (e *Embedding) anchorCandidates(av graph.VertexID, elabel graph.Label, lo, hi graph.VertexID, dst []graph.VertexID) []graph.VertexID {
	nbr := e.g.Neighbors(av)
	var inc []graph.EdgeID // edge ids only for a labelled anchor, as in keepLabelled
	if elabel != pattern.NoLabel {
		inc = e.g.IncidentEdges(av)
	}
	for j := graph.Gallop(nbr, lo); j < len(nbr) && nbr[j] <= hi; {
		u := nbr[j]
		if elabel == pattern.NoLabel || e.runMatches(nbr, inc, j, elabel) {
			dst = append(dst, u)
		}
		for j < len(nbr) && nbr[j] == u {
			j++
		}
	}
	return dst
}

// keepLabelled filters cands, a sorted subset of v's neighbours, in place
// down to those joined to v by an edge labelled elabel. Each candidate is
// galloped to from the previous one's run.
func (e *Embedding) keepLabelled(cands []graph.VertexID, v graph.VertexID, elabel graph.Label) []graph.VertexID {
	nbr := e.g.Neighbors(v)
	inc := e.g.IncidentEdges(v)
	out, j := cands[:0], 0
	for _, u := range cands {
		j += graph.Gallop(nbr[j:], u)
		if e.runMatches(nbr, inc, j, elabel) {
			out = append(out, u)
		}
	}
	return out
}

// runMatches reports whether the duplicate run of nbr starting at j (the
// parallel edges to neighbor nbr[j]) contains an edge labelled elabel.
func (e *Embedding) runMatches(nbr []graph.VertexID, inc []graph.EdgeID, j int, elabel graph.Label) bool {
	u := nbr[j]
	for ; j < len(nbr) && nbr[j] == u; j++ {
		if e.g.EdgeLabel(inc[j]) == elabel {
			return true
		}
	}
	return false
}

// Complete reports whether a pattern-induced embedding has bound every
// pattern vertex (always false for other kinds).
func (e *Embedding) Complete() bool {
	return e.kind == PatternInduced && len(e.words) == len(e.plan.Order)
}

// Pattern returns the pattern (template) of the current embedding: induced
// edges for vertex-induced, the exact edge set for edge-induced, and the
// plan's pattern for pattern-induced embeddings. It builds a new Pattern on
// every call; per-embedding code that wants the canonical code, the
// canonical positions or a representative asks Class instead.
func (e *Embedding) Pattern() *pattern.Pattern {
	switch e.kind {
	case VertexInduced:
		return pattern.FromEmbedding(e.g, e.vertices, nil)
	case EdgeInduced:
		return pattern.FromEmbedding(e.g, e.vertices, e.edges)
	default:
		return e.plan.P
	}
}

// String summarizes the embedding.
func (e *Embedding) String() string {
	return fmt.Sprintf("Embedding(%s V=%v E=%v)", e.kind, e.vertices, e.Edges())
}

func sortWords(ws []Word) {
	// Insertion sort: extension lists are small and nearly sorted.
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j] < ws[j-1]; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}
