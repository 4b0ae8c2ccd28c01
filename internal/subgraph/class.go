package subgraph

import (
	"slices"

	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// classMemo is an embedding's pattern-class memo: canonical labelling is paid
// once per distinct quick pattern the embedding passes through, not once per
// embedding. The quick key is the pattern.Fingerprint of the embedding's
// labeled subgraph — vertex count, vertex labels in discovery order, then
// adjacency and edge labels for every vertex pair — written into a reused
// buffer straight from the embedding's vertices and edges. Edge arrival order
// is not part of it: embeddings that reach one labeled graph by different
// edge sequences share a key. The memo has one writer, its embedding's core,
// and lives as long as the embedding: one step on one core.
type classMemo struct {
	m   map[string]*pattern.Class
	cur *pattern.Class // class of the current words; Push and Pop reset it
	key []byte
	// canonCalls counts the canonical-labelling searches the memo has run.
	canonCalls int64
	// Pair scratch of the key: adj[i] has bit j set when vertices i > j are
	// adjacent, lab[i*n+j] is then the edge's label.
	adj []uint32
	lab []graph.Label
}

// Class returns the isomorphism class of the embedding's labeled subgraph:
// its vertices in discovery order with their first labels, joined by the
// edges the embedding holds — every edge among the vertices when
// vertex-induced, the chosen edges when edge-induced, the matched edges when
// pattern-induced — where of parallel edges the first one's label stands. For
// vertex- and edge-induced embeddings that is pattern.Classify(e.Pattern());
// for pattern-induced ones it is the match with the graph's labels filled in,
// not the plan's template. Code is the aggregation key, Perm[i] the canonical
// position of Vertices()[i], Rep the class's one shared pattern.
//
// The result is shared and must not be modified. It is computed at most once
// per embedding state, so the filter, key and value callbacks of one
// embedding share one lookup, and a lookup that hits allocates nothing.
func (e *Embedding) Class() *pattern.Class {
	mm := &e.memo
	if mm.cur != nil {
		return mm.cur
	}
	mm.key = e.appendQuickKey(mm.key[:0])
	cl, ok := mm.m[string(mm.key)]
	if !ok {
		cl = pattern.Classify(pattern.FromEmbedding(e.g, e.vertices, e.edges))
		mm.canonCalls++
		if mm.m == nil {
			mm.m = map[string]*pattern.Class{}
		}
		mm.m[string(mm.key)] = cl
	}
	mm.cur = cl
	return cl
}

// ClassStats returns what Class has cost so far: the distinct quick patterns
// it has met (memo misses) and the canonical-labelling searches it ran for
// them — never more than one each, whatever the number of embeddings.
func (e *Embedding) ClassStats() (quickPatterns, canonCalls int64) {
	return int64(len(e.memo.m)), e.memo.canonCalls
}

// appendQuickKey appends the fingerprint of the embedding's labeled subgraph
// to dst. Steady state allocates nothing.
func (e *Embedding) appendQuickKey(dst []byte) []byte {
	mm := &e.memo
	n := len(e.vertices)
	if cap(mm.adj) < n {
		mm.adj, mm.lab = make([]uint32, n), make([]graph.Label, n*n)
	}
	adj, lab := mm.adj[:n], mm.lab[:n*n]
	clear(adj)
	for _, id := range e.edges {
		src, dst := e.g.EdgeEndpoints(id)
		// At most pattern.MaxVertices vertices: a scan beats a map.
		i, j := slices.Index(e.vertices, src), slices.Index(e.vertices, dst)
		if i < j {
			i, j = j, i
		}
		if adj[i]&(1<<uint(j)) == 0 {
			adj[i] |= 1 << uint(j)
			lab[i*n+j] = e.g.EdgeLabel(id)
		}
	}
	dst = pattern.AppendInt(dst, int32(n))
	for _, v := range e.vertices {
		dst = pattern.AppendInt(dst, int32(e.g.VertexLabel(v)))
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if adj[i]&(1<<uint(j)) != 0 {
				dst = pattern.AppendInt(append(dst, 1), int32(lab[i*n+j]))
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}
