package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// This file implements the input formats supported by Fractal's
// FractalGraph.adjacencyList loader (operator I1 in Figure 2) plus an
// edge-list format and a keyword-attribute sidecar, and the corresponding
// writers. Every loader goes from bytes to the Builder's flat arrays through
// one reused buffer: tokens are subslices of it, integers are scanned in
// place, and only label names reach the dictionary (DESIGN.md §13,
// "Ingest"). Fields are separated by ASCII white space.
//
// Adjacency-list format (one line per vertex, Arabesque-compatible):
//
//	<vertexID> <vertexLabel> [<neighbor> ...]
//
// Each undirected edge appears on the lines of both endpoints; the loader
// takes its edge ids from the lower endpoint's line and refuses a file that
// lists an edge from one endpoint only.
//
// Labeled edge-list format:
//
//	v <vertexID> <label>[,<label>...]
//	e <src> <dst> [<label>[,<label>...]]
//
// Keyword sidecar format:
//
//	v <vertexID> <kw>[,<kw>...]
//	e <edgeID> <kw>[,<kw>...]

// ParseError is the failure of a text loader: the graph (or sidecar) it was
// reading, the 1-based line, and what is wrong with it.
type ParseError struct {
	File   string
	Line   int
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("graph: %s:%d: %s", e.File, e.Line, e.Reason)
}

// maxLine bounds one line of a text graph.
const maxLine = 1 << 24

// records yields the record lines of a text graph, field by field, through
// the scanner's one reused buffer (Bytes, never Text: nothing is allocated
// per line). Fields are subslices of that buffer, valid until next.
type records struct {
	sc   *bufio.Scanner
	buf  []byte // the scanner's initial buffer
	name string
	line int    // number of the current line
	rest []byte // what follows the fields taken from the current line
	size int    // length of the input when r can tell, else 0
}

func newRecords(r io.Reader, name string) *records {
	in := &records{sc: bufio.NewScanner(r), buf: make([]byte, 1<<16), name: name}
	in.sc.Buffer(in.buf, maxLine)
	switch r := r.(type) {
	case interface{ Len() int }:
		in.size = r.Len()
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil {
			in.size = int(fi.Size())
		}
	}
	return in
}

// next moves to the next line that is neither blank nor a # comment and
// returns its first field; ok is false at the end of the input.
func (in *records) next() (first []byte, ok bool) {
	for in.sc.Scan() {
		in.line++
		in.rest = in.sc.Bytes()
		if first = in.field(); len(first) > 0 && first[0] != '#' {
			return first, true
		}
	}
	return nil, false
}

// field takes the next white-space-separated field of the current line,
// empty at its end.
func (in *records) field() []byte {
	s, i := in.rest, 0
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !isSpace(s[j]) {
		j++
	}
	in.rest = s[j:]
	return s[i:j]
}

func isSpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// id parses tok as a vertex or edge id. Ids stop below MaxInt32 so that
// id+1 is still a count the int32 offset arrays can hold.
func (in *records) id(tok []byte, what string) (int, error) {
	n, err := strconv.Atoi(string(tok)) // tok is short: the conversion stays on the stack
	if err != nil || n < 0 || n >= math.MaxInt32 {
		return 0, in.errorf("bad %s %q (want 0..%d)", what, tok, math.MaxInt32-1)
	}
	return n, nil
}

// internList appends to dst the labels of the comma-separated names in csv,
// interning them in order; empty names are skipped.
func internList(d *Dictionary, csv []byte, dst []Label) []Label {
	for len(csv) > 0 {
		name := csv
		if i := bytes.IndexByte(csv, ','); i >= 0 {
			name, csv = csv[:i], csv[i+1:]
		} else {
			csv = nil
		}
		if len(name) > 0 {
			dst = append(dst, d.internBytes(name))
		}
	}
	return dst
}

func (in *records) errorf(format string, args ...any) error {
	return &ParseError{File: in.name, Line: in.line, Reason: fmt.Sprintf(format, args...)}
}

// err ends a load: nil, unless the input ended early.
func (in *records) err() error {
	switch err := in.sc.Err(); err {
	case nil:
		return nil
	case bufio.ErrTooLong:
		in.line++
		return in.errorf("line longer than %d bytes", maxLine)
	default:
		return fmt.Errorf("graph: reading %s: %w", in.name, err)
	}
}

// countRecords counts the lines of r whose first field is "v" and those
// whose first field is "e", reading through buf, and rewinds r to where it
// stood. It looks at the first bytes of each line and lets bytes.IndexByte
// skip the rest: counting an edge list costs about a tenth of parsing it. A read error ends the count early, and the parse that follows meets
// it at its line.
func countRecords(r io.ReadSeeker, buf []byte) (v, e int, err error) {
	start, err := r.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, 0, err
	}
	const (
		lineStart = iota // before the line's first field
		sawV             // the first field starts "v"
		sawE             // the first field starts "e"
		inLine           // past what decides the line
	)
	state := lineStart
	for {
		n, rerr := r.Read(buf)
		for p := buf[:n]; len(p) > 0; {
			switch state {
			case lineStart:
				switch c := p[0]; {
				case c == 'v':
					state = sawV
				case c == 'e':
					state = sawE
				case !isSpace(c):
					state = inLine
				}
				p = p[1:]
			case sawV, sawE:
				if isSpace(p[0]) { // the first field is exactly "v" or "e"
					if state == sawV {
						v++
					} else {
						e++
					}
				}
				state = inLine // p[0] may be the line's end: inLine takes it
			case inLine:
				i := bytes.IndexByte(p, '\n')
				if i < 0 {
					p = nil
					break
				}
				p, state = p[i+1:], lineStart
			}
		}
		if rerr != nil {
			break
		}
	}
	if state == sawV {
		v++
	} else if state == sawE {
		e++
	}
	_, err = r.Seek(start, io.SeekStart)
	return v, e, err
}

// LoadAdjacencyList parses the adjacency-list format from r into a Graph
// named name.
func LoadAdjacencyList(r io.Reader, name string) (*Graph, error) {
	b := NewBuilder(name)
	in := newRecords(r, name)
	b.reserve(in.size/16, 0)
	// Arcs listed from their higher endpoint, as (lower, higher) pairs, and
	// the line of every vertex's record: what the symmetry check needs.
	rsrc, rdst := make([]VertexID, 0, in.size/16), make([]VertexID, 0, in.size/16)
	var lineOf []int32
	for tok, ok := in.next(); ok; tok, ok = in.next() {
		id, err := in.id(tok, "vertex id")
		if err != nil {
			return nil, err
		}
		tok = in.field()
		lbl, err := strconv.Atoi(string(tok))
		if err != nil || lbl != int(int32(lbl)) {
			return nil, in.errorf("bad label %q after the vertex id", tok)
		}
		b.EnsureVertices(id + 1)
		b.SetVertexLabels(VertexID(id), Label(lbl))
		for len(lineOf) <= id {
			lineOf = append(lineOf, 0)
		}
		lineOf[id] = int32(in.line)
		for tok = in.field(); len(tok) > 0; tok = in.field() {
			nb, err := in.id(tok, "neighbor")
			if err != nil {
				return nil, err
			}
			switch {
			case nb < id:
				if len(rsrc) == math.MaxInt32/2 { // AddEdge's cap, which buildAdjacency needs
					return nil, in.errorf("more than %d edges", math.MaxInt32/2)
				}
				rsrc, rdst = append(rsrc, VertexID(nb)), append(rdst, VertexID(id))
			case nb > id: // a vertex listing itself is ignored
				b.EnsureVertices(nb + 1)
				if _, err := b.AddEdge(VertexID(id), VertexID(nb)); err != nil {
					return nil, in.errorf("%v", err)
				}
			}
		}
	}
	if err := in.err(); err != nil {
		return nil, err
	}
	g := b.Build()
	// The graph holds the arcs listed from the lower endpoint. Every run of
	// a CSR is sorted, so an edge listed from one endpoint only is the first
	// difference between their adjacency and that of the arcs listed from
	// the higher endpoint.
	roff, radj := buildAdjacency(g.NumVertices(), rsrc, rdst)
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		fwd, rev := g.Neighbors(u), radj[roff[u]:roff[u+1]]
		i := 0
		for i < len(fwd) && i < len(rev) && fwd[i] == rev[i] {
			i++
		}
		if i == len(fwd) && i == len(rev) {
			continue
		}
		// The edge is in the graph when the lower endpoint lists it.
		var lists, other VertexID
		if i < len(fwd) && (i == len(rev) || fwd[i] < rev[i]) {
			lists, other = min(u, fwd[i]), max(u, fwd[i])
		} else {
			lists, other = max(u, rev[i]), min(u, rev[i])
		}
		return nil, &ParseError{File: name, Line: int(lineOf[lists]), Reason: fmt.Sprintf(
			"vertex %d lists neighbor %d, but vertex %d does not list %d", lists, other, other, lists)}
	}
	return g, nil
}

// LoadEdgeList parses the labeled edge-list format from r into a Graph named
// name. Labels are interned through the graph's dictionary. r is read twice:
// a count of its v and e records sizes the edge arrays and the vertex label
// payload (countRecords), then r is rewound and parsed. The counts are a
// reservation only: a miscounted record costs an append, never a different
// graph.
func LoadEdgeList(r io.ReadSeeker, name string) (*Graph, error) {
	b := NewBuilder(name)
	in := newRecords(r, name)
	// The scanner has not read yet: the count borrows its buffer.
	nv, ne, err := countRecords(r, in.buf)
	if err != nil {
		return nil, fmt.Errorf("graph: reading %s: %w", name, err)
	}
	b.reserve(ne, nv)
	var labels []Label
	for kind, ok := in.next(); ok; kind, ok = in.next() {
		switch string(kind) {
		case "v":
			id, err := in.id(in.field(), "vertex id")
			if err != nil {
				return nil, err
			}
			b.EnsureVertices(id + 1)
			if tok := in.field(); len(tok) > 0 {
				labels = internList(b.dict, tok, labels[:0])
				b.SetVertexLabels(VertexID(id), labels...)
			}
		case "e":
			u, err := in.id(in.field(), "endpoint")
			if err != nil {
				return nil, err
			}
			v, err := in.id(in.field(), "endpoint")
			if err != nil {
				return nil, err
			}
			b.EnsureVertices(max(u, v) + 1)
			labels = internList(b.dict, in.field(), labels[:0])
			if _, err := b.AddEdge(VertexID(u), VertexID(v), labels...); err != nil {
				return nil, in.errorf("%v", err)
			}
		default:
			return nil, in.errorf("unknown record %q", kind)
		}
	}
	if err := in.err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// LoadFile loads a graph from path, choosing the format by extension:
// ".graph" adjacency list, ".el" edge list, ".fgr" the binary CSR format
// (memory-mapped; see LoadFGR). For the text formats a sidecar "<path>.kw"
// with keyword attributes is applied when present; an .fgr file carries its
// keywords in-format.
func LoadFile(path string) (*Graph, error) {
	if strings.HasSuffix(path, ".fgr") {
		return LoadFGR(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(path[strings.LastIndexByte(path, '/')+1:], ".graph")
	name = strings.TrimSuffix(name, ".el")
	var g *Graph
	if strings.HasSuffix(path, ".el") {
		g, err = LoadEdgeList(f, name)
	} else {
		g, err = LoadAdjacencyList(f, name)
	}
	if err != nil {
		return nil, err
	}
	kwf, kerr := os.Open(path + ".kw")
	if kerr == nil {
		defer kwf.Close()
		g, err = ApplyKeywords(g, kwf)
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ApplyKeywords parses a keyword sidecar and returns g carrying its keyword
// attributes (interned through g's dictionary) on top of those g already has.
// g is unchanged: the result shares its immutable adjacency (the edge-id
// index too, built or not), endpoint and label arrays and owns only the
// keyword families — for a mapped g it is valid until g is closed.
func ApplyKeywords(g *Graph, r io.Reader) (*Graph, error) {
	vkw, ekw := setsOf(g.vkwOff, g.vkw, g.nv), setsOf(g.ekwOff, g.ekw, len(g.esrc))
	hasKW := len(g.vkw)+len(g.ekw) > 0 // as in a rebuild (Reduce): the flag follows content
	in := newRecords(r, g.name+".kw")
	var kws []Label
	for kind, ok := in.next(); ok; kind, ok = in.next() {
		id, err := in.id(in.field(), "id")
		if err != nil {
			return nil, err
		}
		tok := in.field()
		if len(tok) == 0 {
			return nil, in.errorf("want kind id kws")
		}
		kws = internList(g.dict, tok, kws[:0])
		switch string(kind) {
		case "v":
			if id >= g.NumVertices() {
				return nil, in.errorf("vertex %d out of range", id)
			}
			vkw.set(id, kws)
		case "e":
			if id >= g.NumEdges() {
				return nil, in.errorf("edge %d out of range", id)
			}
			ekw.set(id, kws)
		default:
			return nil, in.errorf("unknown record %q", kind)
		}
		hasKW = true
	}
	if err := in.err(); err != nil {
		return nil, err
	}
	out := *g
	out.unmap = nil
	out.hasKW = hasKW
	out.vkwOff, out.vkw = vkw.pack(g.nv)
	out.ekwOff, out.ekw = ekw.pack(len(g.esrc))
	return &out, nil
}

// setsOf returns the sets of a Graph's label family over count elements in
// the builder's form, on a payload of its own.
func setsOf(off []int32, packed []Label, count int) labelSets {
	s := labelSets{data: slices.Clone(packed)}
	if off == nil && len(packed) == 1 {
		s.shared = count
	} else if off != nil {
		s.runs = make([]run, len(off)-1)
		for i := range s.runs {
			s.runs[i] = run{off[i], off[i+1] - off[i]}
		}
	}
	return s
}

// recordWriter formats the records of the text formats straight into bw's
// buffer; write errors stay in bw until Flush.
type recordWriter struct {
	bw   *bufio.Writer
	dict *Dictionary
}

func newRecordWriter(w io.Writer, g *Graph) *recordWriter {
	return &recordWriter{bw: bufio.NewWriterSize(w, 1<<16), dict: g.Dict()}
}

// record writes "<kind> <id>... <label>,<label>...\n"; the label field and
// its separator are left out when there are no labels, unless pad is set.
func (o *recordWriter) record(kind byte, labels []Label, pad bool, ids ...int64) {
	line := append(o.bw.AvailableBuffer(), kind)
	for _, id := range ids {
		line = strconv.AppendInt(append(line, ' '), id, 10)
	}
	if len(labels) > 0 || pad {
		line = append(line, ' ')
	}
	for i, l := range labels {
		if i > 0 {
			line = append(line, ',')
		}
		if n := o.dict.Name(l); n != "" {
			line = append(line, n...)
		} else {
			line = strconv.AppendInt(line, int64(l), 10)
		}
	}
	_, _ = o.bw.Write(append(line, '\n')) // bw keeps the first error; Flush returns it
}

// WriteEdgeList writes g in the labeled edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	out := newRecordWriter(w, g)
	for v := 0; v < g.NumVertices(); v++ {
		out.record('v', g.VertexLabels(VertexID(v)), true, int64(v))
	}
	for id := 0; id < g.NumEdges(); id++ {
		e := g.EdgeByID(EdgeID(id))
		out.record('e', e.Labels, false, int64(e.Src), int64(e.Dst))
	}
	return out.bw.Flush()
}

// WriteKeywords writes g's keyword attributes in the sidecar format.
func WriteKeywords(w io.Writer, g *Graph) error {
	out := newRecordWriter(w, g)
	for v := 0; v < g.NumVertices(); v++ {
		if ks := g.VertexKeywords(VertexID(v)); len(ks) > 0 {
			out.record('v', ks, false, int64(v))
		}
	}
	for id := 0; id < g.NumEdges(); id++ {
		if ks := g.EdgeKeywords(EdgeID(id)); len(ks) > 0 {
			out.record('e', ks, false, int64(id))
		}
	}
	return out.bw.Flush()
}
