package pattern

import (
	"fractal/internal/graph"
	"fractal/internal/wire"
)

// AppendBinary appends the compact, self-delimiting wire form of p to dst and
// returns the extended slice: uvarint vertex count, one zigzag-varint label
// per vertex, uvarint edge count, then per edge (u uvarint, v uvarint, label
// zigzag-varint) with u < v in ascending (u, v) order. The aggregation wire
// codec embeds patterns this way.
func (p *Pattern) AppendBinary(dst []byte) []byte {
	w := wire.Writer{B: dst}
	w.Count(p.n)
	for _, l := range p.vlabels {
		w.Varint(int64(l))
	}
	w.Count(p.m)
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.HasEdge(u, v) {
				w.Uvarint(uint64(u))
				w.Uvarint(uint64(v))
				w.Varint(int64(p.EdgeLabel(u, v)))
			}
		}
	}
	return w.B
}

// ReadBinary decodes one pattern written by AppendBinary from r. Invalid
// input (truncation, out-of-range counts, bad edges) fails r and returns nil,
// never panics: the bytes may arrive from the wire.
func ReadBinary(r *wire.Reader) *Pattern { return readBinary(r, true) }

// SkipBinary reads past one pattern written by AppendBinary, refusing what
// ReadBinary refuses, without building it: it returns the pattern's bytes,
// aliasing r's input, for a ReadBinary later (nil once r has failed).
func SkipBinary(r *wire.Reader) []byte {
	start := r.Offset()
	readBinary(r, false)
	return r.Since(start)
}

// readBinary checks one pattern's form and, when build is set, builds it.
func readBinary(r *wire.Reader, build bool) *Pattern {
	n := r.Count()
	if n > MaxVertices {
		r.Failf("pattern: vertex count %d out of range", n)
	}
	if r.Err() != nil {
		return nil
	}
	var b *PBuilder
	if build {
		b = NewBuilder(n)
	}
	for v := 0; v < n; v++ {
		if l := graph.Label(r.Varint()); build {
			b.SetVertexLabel(v, l)
		}
	}
	m := r.Count()
	if m > n*n {
		r.Failf("pattern: edge count %d out of range", m)
	}
	var adj [MaxVertices]uint32
	for i := 0; i < m && r.Err() == nil; i++ {
		u, v, l := r.Uvarint(), r.Uvarint(), r.Varint()
		switch {
		case r.Err() != nil:
		case u >= uint64(n) || v >= uint64(n) || u == v:
			r.Failf("pattern: edge (%d,%d) invalid", u, v)
		case adj[u]&(1<<v) != 0:
			r.Failf("pattern: edge (%d,%d) duplicated", u, v)
		default:
			adj[u], adj[v] = adj[u]|1<<v, adj[v]|1<<u
			if build {
				b.AddEdge(int(u), int(v), graph.Label(l))
			}
		}
	}
	if r.Err() != nil || !build {
		return nil
	}
	return b.Build()
}

// PatternFromBinary decodes a pattern from the front of data, returning it
// and the number of bytes consumed.
func PatternFromBinary(data []byte) (*Pattern, int, error) {
	r := wire.NewReader(data)
	p := ReadBinary(r)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return p, r.Offset(), nil
}
