// Package pattern implements subgraph patterns and the isomorphism machinery
// from Section 2.1 of the Fractal paper: canonical labeling of small labeled
// graphs (the ρ(S) function), isomorphism and automorphism computation, and
// the Grochow–Kellis symmetry-breaking conditions used by pattern-induced
// extension.
package pattern

import (
	"fmt"
	"math/bits"
	"strings"

	"fractal/internal/graph"
)

// MaxVertices is the maximum number of vertices in a Pattern. Patterns are
// templates for the small subgraphs mined by GPM kernels; 32 is far above
// any practical exploration depth.
const MaxVertices = 32

// NoLabel marks an unlabeled vertex or edge within a pattern.
const NoLabel graph.Label = -1

// Pattern is an immutable small labeled graph template. Vertices are
// numbered 0..N-1. Two subgraphs have the same pattern iff their Patterns
// have equal canonical codes.
type Pattern struct {
	n int
	m int
	// The three slices share one backing array (a pattern is built once per
	// quick-pattern miss; one allocation, not three).
	vlabels []graph.Label
	adj     []graph.Label // adjacency bitmask rows, read through AdjMask
	elabels []graph.Label // n*n matrix, NoLabel where no edge/unlabeled
}

// Builder assembles a Pattern.
type PBuilder struct {
	p Pattern
}

// NewBuilder returns a pattern builder with n unlabeled vertices.
func NewBuilder(n int) *PBuilder { return new(PBuilder).Reset(n) }

// Reset starts a new pattern of n unlabeled vertices on the builder's own
// storage, growing it when n is wider than anything built on it before. The
// pattern of an earlier Build is overwritten: only a builder whose patterns
// are read and dropped between resets (Labeller's scratch) calls it twice.
func (b *PBuilder) Reset(n int) *PBuilder {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("pattern: %d vertices out of range [0,%d]", n, MaxVertices))
	}
	// vlabels keeps the capacity of the whole backing array.
	buf := b.p.vlabels[:cap(b.p.vlabels)]
	if size := 2*n + n*n; len(buf) < size {
		buf = make([]graph.Label, size)
	} else {
		buf = buf[:size]
	}
	for i := range buf {
		buf[i] = NoLabel
	}
	b.p = Pattern{n: n, vlabels: buf[:n], adj: buf[n : 2*n : 2*n], elabels: buf[2*n:]}
	clear(b.p.adj)
	return b
}

// SetVertexLabel labels vertex v.
func (b *PBuilder) SetVertexLabel(v int, l graph.Label) *PBuilder {
	b.p.vlabels[v] = l
	return b
}

// AddEdge adds an undirected edge u-v with label l (NoLabel for unlabeled).
// Self-loops and duplicate edges panic: patterns are simple by construction.
func (b *PBuilder) AddEdge(u, v int, l graph.Label) *PBuilder {
	if u == v {
		panic("pattern: self-loop")
	}
	if u < 0 || v < 0 || u >= b.p.n || v >= b.p.n {
		panic(fmt.Sprintf("pattern: edge (%d,%d) out of range n=%d", u, v, b.p.n))
	}
	if b.p.HasEdge(u, v) {
		panic(fmt.Sprintf("pattern: duplicate edge (%d,%d)", u, v))
	}
	b.p.adj[u] |= graph.Label(uint32(1) << uint(v))
	b.p.adj[v] |= graph.Label(uint32(1) << uint(u))
	b.p.elabels[u*b.p.n+v] = l
	b.p.elabels[v*b.p.n+u] = l
	b.p.m++
	return b
}

// Build returns the immutable pattern. The builder must not be used again:
// the pattern is the builder's own storage.
func (b *PBuilder) Build() *Pattern { return &b.p }

// NumVertices returns the number of pattern vertices.
func (p *Pattern) NumVertices() int { return p.n }

// NumEdges returns the number of pattern edges.
func (p *Pattern) NumEdges() int { return p.m }

// VertexLabel returns the label of pattern vertex v (NoLabel if unlabeled).
func (p *Pattern) VertexLabel(v int) graph.Label { return p.vlabels[v] }

// HasEdge reports whether u and v are adjacent in the pattern.
func (p *Pattern) HasEdge(u, v int) bool { return p.AdjMask(u)&(1<<uint(v)) != 0 }

// EdgeLabel returns the label of edge u-v (NoLabel when absent or unlabeled).
func (p *Pattern) EdgeLabel(u, v int) graph.Label { return p.elabels[u*p.n+v] }

// Degree returns the degree of pattern vertex v.
func (p *Pattern) Degree(v int) int { return bits.OnesCount32(p.AdjMask(v)) }

// AdjMask returns the adjacency bitmask of v.
func (p *Pattern) AdjMask(v int) uint32 { return uint32(p.adj[v]) }

// Connected reports whether the pattern is connected (the empty pattern and
// single vertices count as connected).
func (p *Pattern) Connected() bool {
	if p.n <= 1 {
		return true
	}
	var seen uint32 = 1
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for m := p.AdjMask(v) &^ seen; m != 0; m &= m - 1 {
			u := bits.TrailingZeros32(m)
			seen |= 1 << uint(u)
			stack = append(stack, u)
		}
	}
	return seen == (1<<uint(p.n))-1
}

// Fingerprint returns an exact structural key of the pattern in its current
// vertex numbering: two patterns have equal fingerprints iff they are
// identical labeled graphs on 0..n-1 (NOT merely isomorphic). An embedding's
// quick key (subgraph.Embedding.Class) is these bytes, written without
// building the pattern.
func (p *Pattern) Fingerprint() string { return string(p.AppendFingerprint(nil)) }

// AppendFingerprint appends the Fingerprint bytes to dst: the vertex count,
// the vertex labels, then for every pair i > j a 0, or a 1 and the edge
// label — four big-endian bytes per number.
func (p *Pattern) AppendFingerprint(dst []byte) []byte {
	dst = AppendInt(dst, int32(p.n))
	for _, l := range p.vlabels {
		dst = AppendInt(dst, int32(l))
	}
	for i := 1; i < p.n; i++ {
		for j := 0; j < i; j++ {
			if p.HasEdge(i, j) {
				dst = AppendInt(append(dst, 1), int32(p.EdgeLabel(i, j)))
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

// AppendInt appends v as the four big-endian bytes every pattern key — a
// fingerprint, an embedding's quick key, a canonical code — writes a number
// as.
func AppendInt(dst []byte, v int32) []byte {
	return append(dst, byte(uint32(v)>>24), byte(uint32(v)>>16), byte(uint32(v)>>8), byte(uint32(v)))
}

// Relabel returns a copy of p with vertex i renamed to perm[i].
func (p *Pattern) Relabel(perm []int) *Pattern {
	b := NewBuilder(p.n)
	for v := 0; v < p.n; v++ {
		b.SetVertexLabel(perm[v], p.vlabels[v])
	}
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.HasEdge(u, v) {
				b.AddEdge(perm[u], perm[v], p.EdgeLabel(u, v))
			}
		}
	}
	return b.Build()
}

// String renders the pattern as "n=3 labels=[a b c] edges=[0-1 1-2]".
func (p *Pattern) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pattern(n=%d labels=%v edges=[", p.n, p.vlabels)
	first := true
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.HasEdge(u, v) {
				if !first {
					sb.WriteByte(' ')
				}
				first = false
				if l := p.EdgeLabel(u, v); l != NoLabel {
					fmt.Fprintf(&sb, "%d-%d:%d", u, v, l)
				} else {
					fmt.Fprintf(&sb, "%d-%d", u, v)
				}
			}
		}
	}
	sb.WriteString("])")
	return sb.String()
}
