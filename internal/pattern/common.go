package pattern

import (
	"slices"

	"fractal/internal/graph"
)

// This file provides constructors for the pattern shapes used throughout the
// paper's evaluation: cliques and triangles (Fig 12, 20a), paths/stars/cycles,
// and the eight SEED benchmark queries of Figure 14.

// Clique returns the complete unlabeled pattern on k vertices.
func Clique(k int) *Pattern {
	b := NewBuilder(k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v, NoLabel)
		}
	}
	return b.Build()
}

// Triangle returns the 3-clique.
func Triangle() *Pattern { return Clique(3) }

// Path returns the unlabeled path pattern on k vertices (k-1 edges).
func Path(k int) *Pattern {
	b := NewBuilder(k)
	for i := 0; i+1 < k; i++ {
		b.AddEdge(i, i+1, NoLabel)
	}
	return b.Build()
}

// Star returns the unlabeled star with one hub and k-1 leaves.
func Star(k int) *Pattern {
	b := NewBuilder(k)
	for i := 1; i < k; i++ {
		b.AddEdge(0, i, NoLabel)
	}
	return b.Build()
}

// Cycle returns the unlabeled cycle pattern on k >= 3 vertices.
func Cycle(k int) *Pattern {
	b := NewBuilder(k)
	for i := 0; i < k; i++ {
		b.AddEdge(i, (i+1)%k, NoLabel)
	}
	return b.Build()
}

// ChordalSquare returns the 4-cycle with one chord ("diamond").
func ChordalSquare() *Pattern {
	b := NewBuilder(4)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(2, 3, NoLabel)
	b.AddEdge(3, 0, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	return b.Build()
}

// House returns the 5-vertex "house": a square with a roof triangle.
func House() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(2, 3, NoLabel)
	b.AddEdge(3, 0, NoLabel)
	b.AddEdge(0, 4, NoLabel)
	b.AddEdge(1, 4, NoLabel)
	return b.Build()
}

// Bowtie returns two triangles sharing one vertex.
func Bowtie() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(3, 4, NoLabel)
	b.AddEdge(0, 4, NoLabel)
	return b.Build()
}

// ChordalHouse returns the house with an extra chord (near-clique, used as a
// dense 5-vertex query).
func ChordalHouse() *Pattern {
	b := NewBuilder(5)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(2, 3, NoLabel)
	b.AddEdge(3, 0, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(0, 4, NoLabel)
	b.AddEdge(1, 4, NoLabel)
	return b.Build()
}

// DoubleSquare returns two 4-cycles sharing an edge (6 vertices, 7 edges).
func DoubleSquare() *Pattern {
	b := NewBuilder(6)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(2, 3, NoLabel)
	b.AddEdge(3, 0, NoLabel)
	b.AddEdge(1, 4, NoLabel)
	b.AddEdge(4, 5, NoLabel)
	b.AddEdge(5, 2, NoLabel)
	return b.Build()
}

// TwinTriangles returns two triangles sharing an edge ("q7"-style symmetric
// join-friendly pattern, 4 vertices 5 edges). Equal to ChordalSquare; kept as
// its own name for the query suite readability.
func TwinTriangles() *Pattern { return ChordalSquare() }

// SEEDQueries returns the eight benchmark query patterns q1..q8 in the style
// of Figure 14 of the paper (the SEED query suite): a progression from the
// triangle to 5/6-vertex structures mixing symmetric/join-friendly shapes
// with enumeration-heavy ones.
func SEEDQueries() []*Pattern {
	return []*Pattern{
		Triangle(),         // q1
		Cycle(4),           // q2: square
		ChordalSquare(),    // q3: diamond
		Clique(4),          // q4
		Clique(5),          // q5
		House(),            // q6
		twoTrianglePrism(), // q7: two triangles joined (join-friendly)
		DoubleSquare(),     // q8
	}
}

// twoTrianglePrism returns the 6-vertex prism: two triangles connected by a
// perfect matching (highly symmetric; SEED's join plan composes it from
// diamond/triangle matches).
func twoTrianglePrism() *Pattern {
	b := NewBuilder(6)
	b.AddEdge(0, 1, NoLabel)
	b.AddEdge(1, 2, NoLabel)
	b.AddEdge(0, 2, NoLabel)
	b.AddEdge(3, 4, NoLabel)
	b.AddEdge(4, 5, NoLabel)
	b.AddEdge(3, 5, NoLabel)
	b.AddEdge(0, 3, NoLabel)
	b.AddEdge(1, 4, NoLabel)
	b.AddEdge(2, 5, NoLabel)
	return b.Build()
}

// FromEmbedding builds the Pattern of an embedding: vertex i of the pattern
// corresponds to vs[i], vertex labels are taken from g (first label), and an
// edge i-j with g's edge label is added whenever es contains an edge between
// vs[i] and vs[j]. Patterns are simple: of several parallel edges in es the
// first one's label stands. When es is nil the pattern is vertex-induced: all
// edges of g among vs are included.
func FromEmbedding(g *graph.Graph, vs []graph.VertexID, es []graph.EdgeID) *Pattern {
	return fillFromEmbedding(new(PBuilder), g, vs, es)
}

// fillFromEmbedding is FromEmbedding on b's storage.
func fillFromEmbedding(b *PBuilder, g *graph.Graph, vs []graph.VertexID, es []graph.EdgeID) *Pattern {
	b.Reset(len(vs))
	for i, v := range vs {
		b.SetVertexLabel(i, g.VertexLabel(v))
	}
	if es == nil {
		for i, v := range vs {
			for j := i + 1; j < len(vs); j++ {
				if id := g.EdgeBetween(v, vs[j]); id != graph.NilEdge {
					b.AddEdge(i, j, g.EdgeLabel(id))
				}
			}
		}
		return b.Build()
	}
	for _, id := range es {
		src, dst := g.EdgeEndpoints(id)
		// Embeddings have at most MaxVertices vertices: a scan beats a map.
		i, j := slices.Index(vs, src), slices.Index(vs, dst)
		if i < 0 || j < 0 || b.p.HasEdge(i, j) {
			continue
		}
		b.AddEdge(i, j, g.EdgeLabel(id))
	}
	return b.Build()
}
