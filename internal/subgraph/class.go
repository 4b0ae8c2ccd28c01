package subgraph

import (
	"slices"

	"fractal/internal/graph"
	"fractal/internal/pattern"
)

// MaxClassFilters is the width of a memo entry's verdict bitset: the number
// of class filters one step can hold.
const MaxClassFilters = 32

// packedPermVertices is the widest pattern whose permutation packs into a
// quickEntry's word, three bits a vertex.
const packedPermVertices = 8

// verdicts are a core's class-filter decisions on one class: bit i of known
// says the step's filter i has been decided, bit i of pass how.
type verdicts struct{ known, pass uint32 }

// quickEntry is what the memo keeps per quick pattern, by value: the class's
// shared table entry, this numbering's permutation, and the class's verdicts
// as far as an embedding of this quick pattern has asked for them.
type quickEntry struct {
	cl *pattern.Class
	// perm holds the canonical position of vertex i in bits 3i..3i+2 for
	// patterns of at most packedPermVertices vertices, and the offset of the
	// permutation in classMemo.wide for wider ones.
	perm uint32
	verdicts
}

// classMemo is an embedding's pattern-class memo: canonical labelling is paid
// once per distinct quick pattern the embedding passes through, and a class
// filter's predicate once per class, not once per embedding. The quick key is
// the pattern.Fingerprint of the embedding's labeled subgraph — vertex count,
// vertex labels in discovery order, then adjacency and edge labels for every
// vertex pair — written into a reused buffer straight from the embedding's
// vertices and edges. Edge arrival order is not part of it: embeddings that
// reach one labeled graph by different edge sequences share a key. The memo
// has one writer, its embedding's core, and lives as long as the embedding:
// one step on one core — which is what makes a memoised verdict sound, since
// a step never writes the environment its class filters read.
type classMemo struct {
	// m maps a quick key to its entry's index: verdicts are written into
	// entries in place, so only a miss stores into the map (and allocates its
	// key).
	m       map[string]int32
	entries []quickEntry
	// cur is the entry of the current words and view the Class built from it;
	// Push and Pop drop both by clearing resolved.
	cur      *quickEntry
	view     pattern.Class
	resolved bool
	permBuf  [packedPermVertices]int // view.Perm of a packed permutation
	wide     []int                   // permutations too wide to pack, back to back
	byClass  map[*pattern.Class]verdicts
	lab      pattern.Labeller // labels the misses; class filters may borrow it
	key      []byte
	// classesPruned counts (class, filter) refusals decided on this core,
	// subgraphsPruned the embeddings those verdicts turned away.
	classesPruned, subgraphsPruned int64
	// Pair scratch of the key: adj[i] has bit j set when vertices i > j are
	// adjacent, lab[i*n+j] is then the edge's label.
	adj  []uint32
	elab []graph.Label
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
// The result is the embedding's own view of the class: it must not be
// modified, and it — Perm above all — is valid until the embedding's next
// Push or Pop. It is computed at most once per embedding state, so the
// filter, key and value callbacks of one embedding share one lookup, and a
// lookup that hits allocates nothing.
func (e *Embedding) Class() *pattern.Class {
	e.resolve()
	return &e.memo.view
}

// resolve makes cur and view those of the current words.
func (e *Embedding) resolve() {
	mm := &e.memo
	if mm.resolved {
		return
	}
	n := len(e.vertices)
	mm.key = e.appendQuickKey(mm.key[:0]) // resolves the edges ClassifyEmbedding reads
	idx, ok := mm.m[string(mm.key)]
	if !ok {
		cl, perm := mm.lab.ClassifyEmbedding(e.g, e.vertices, e.edges)
		ent := quickEntry{cl: cl}
		if n <= packedPermVertices {
			ent.perm = packPerm(perm)
		} else {
			ent.perm = uint32(len(mm.wide))
			mm.wide = append(mm.wide, perm...)
		}
		if mm.m == nil {
			mm.m = map[string]int32{}
		}
		idx = int32(len(mm.entries))
		mm.entries = append(mm.entries, ent)
		mm.m[string(mm.key)] = idx
	}
	ent := &mm.entries[idx] // stays valid until the next miss, which resolves anew
	mm.cur, mm.resolved = ent, true
	mm.view.Code, mm.view.Rep = ent.cl.Code, ent.cl.Rep
	if n <= packedPermVertices {
		mm.view.Perm = unpackPerm(ent.perm, mm.permBuf[:n])
	} else {
		mm.view.Perm = mm.wide[ent.perm : int(ent.perm)+n : int(ent.perm)+n]
	}
}

// packPerm packs a permutation of at most packedPermVertices positions.
func packPerm(perm []int) uint32 {
	var w uint32
	for i, pos := range perm {
		w |= uint32(pos) << (3 * uint(i))
	}
	return w
}

// unpackPerm is packPerm's inverse for len(dst) vertices.
func unpackPerm(w uint32, dst []int) []int {
	for i := range dst {
		dst[i] = int(w >> (3 * uint(i)) & 7)
	}
	return dst
}

// ClassPasses reports whether the embedding's class passes the class filter
// numbered bit (below MaxClassFilters) among its step's. decide is the
// filter's predicate; it sees the class's shared table entry and may run
// labelling searches on the memo's labeller, which counts them. It runs at
// most once per class in the memo's lifetime: the verdict is kept per class
// and copied into the quick pattern's entry, so every later embedding of the
// quick pattern pays a flag read.
func (e *Embedding) ClassPasses(bit int, decide func(*pattern.Class, *pattern.Labeller) bool) bool {
	e.resolve()
	mm := &e.memo
	mask := uint32(1) << uint(bit)
	if mm.cur.known&mask == 0 {
		v := mm.byClass[mm.cur.cl]
		if v.known&mask == 0 {
			v.known |= mask
			if decide(mm.cur.cl, &mm.lab) {
				v.pass |= mask
			} else {
				mm.classesPruned++
			}
			if mm.byClass == nil {
				mm.byClass = map[*pattern.Class]verdicts{}
			}
			mm.byClass[mm.cur.cl] = v
		}
		mm.cur.known |= mask
		mm.cur.pass |= v.pass & mask
	}
	if mm.cur.pass&mask == 0 {
		mm.subgraphsPruned++
		return false
	}
	return true
}

// ClassStats is what an embedding's class memo has cost and saved so far.
type ClassStats struct {
	// QuickPatterns counts the distinct quick patterns met (memo misses),
	// CanonCalls the canonical-labelling searches run: one per quick pattern
	// plus those of the class filters' predicates.
	QuickPatterns, CanonCalls int64
	// ClassesPruned counts the classes a class filter refused,
	// SubgraphsPruned the embeddings turned away by those verdicts.
	ClassesPruned, SubgraphsPruned int64
}

// ClassStats returns the memo's counters.
func (e *Embedding) ClassStats() ClassStats {
	mm := &e.memo
	return ClassStats{int64(len(mm.entries)), mm.lab.Searches, mm.classesPruned, mm.subgraphsPruned}
}

// appendQuickKey appends the fingerprint of the embedding's labeled subgraph
// to dst. Steady state allocates nothing.
func (e *Embedding) appendQuickKey(dst []byte) []byte {
	e.resolveEdges()
	mm := &e.memo
	n := len(e.vertices)
	if cap(mm.adj) < n {
		mm.adj, mm.elab = make([]uint32, n), make([]graph.Label, n*n)
	}
	adj, lab := mm.adj[:n], mm.elab[:n*n]
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
