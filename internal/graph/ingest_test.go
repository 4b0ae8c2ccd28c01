package graph

// Differential, golden, typed-error and allocation tests of the ingest path:
// the flat Builder, the sort-free CSR build and the byte-level text parsers
// must produce, byte for byte, the .fgr the parent commit's implementation
// (oraclegraph_test.go) produces.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// relabelBuilder covers what the three base recipes leave out: isolated
// vertices from EnsureVertices, vertices relabelled (twice) after edges
// already reference them, wide label sets with duplicates, and keyword sets
// replaced or cleared after the fact.
func relabelBuilder(r *rand.Rand) *ops {
	b := &ops{name: "oracle-relabel"}
	n := 4 + r.Intn(40)
	for i := 0; i < n/2; i++ {
		b.AddVertex(randLabels(r, 6)...)
	}
	b.EnsureVertices(n)
	for i := 0; i < 2*n; i++ {
		u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n))
		if id, err := b.AddEdge(u, v, randLabels(r, 9)...); err == nil && r.Intn(3) == 0 {
			b.SetEdgeKeywords(id, randLabels(r, 5)...)
			if r.Intn(3) == 0 {
				b.SetEdgeKeywords(id, randLabels(r, 5)...)
			}
		}
	}
	for i := 0; i < n; i++ {
		v := VertexID(r.Intn(n))
		b.SetVertexLabels(v, randLabels(r, 6)...)
		if r.Intn(2) == 0 {
			b.SetVertexLabels(v, append(randLabels(r, 6), 3, 3, 1)...)
		}
		if r.Intn(4) == 0 {
			b.SetVertexKeywords(v, randLabels(r, 5)...)
		}
	}
	b.EnsureVertices(n + r.Intn(3)) // trailing isolated vertices
	return b
}

var ingestRecipes = append(oracleRecipes[:len(oracleRecipes):len(oracleRecipes)], recipe{"relabel", relabelBuilder})

// adjacencyText writes g in the adjacency-list format with its record lines
// in a random order and assorted line ends (the format carries one numeric
// label per vertex and no edge labels; whatever else g has is left out).
func adjacencyText(g *Graph, r *rand.Rand) string {
	var sb strings.Builder
	for _, v := range r.Perm(g.NumVertices()) {
		fmt.Fprintf(&sb, "%d %d", v, max(g.VertexLabel(VertexID(v)), 0))
		for _, w := range g.Neighbors(VertexID(v)) {
			fmt.Fprintf(&sb, " %d", w)
		}
		sb.WriteString([]string{"\n", "\n", " \n", "\r\n", "\t \n\n"}[r.Intn(5)])
	}
	return sb.String()
}

// TestIngestDifferential pins SaveFGR(new) == SaveFGR(parent algorithm)
// byte for byte: for the builder alone, and for every text format and the
// writer round trip on top of it.
func TestIngestDifferential(t *testing.T) {
	for _, rec := range ingestRecipes {
		t.Run(rec.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				b := rec.build(rand.New(rand.NewSource(seed)))
				g, want := b.Build(), b.seed().Build()
				if !bytes.Equal(EncodeFGR(g), EncodeFGR(want)) {
					t.Fatalf("seed %d: Builder.Build differs from the parent's Build", seed)
				}

				// Writers: same bytes as the parent's fmt.Fprintf writers.
				var el, kw, wantEL, wantKW bytes.Buffer
				if err := errors.Join(WriteEdgeList(&el, g), WriteKeywords(&kw, g),
					seedWriteEdgeList(&wantEL, want), seedWriteKeywords(&wantKW, want)); err != nil {
					t.Fatal(err)
				}
				if el.String() != wantEL.String() || kw.String() != wantKW.String() {
					t.Fatalf("seed %d: writer output differs from the parent's:\n%s\nwant:\n%s", seed, el.String(), wantEL.String())
				}

				// Edge list and keyword sidecar back in.
				lg, err := LoadEdgeList(bytes.NewReader(el.Bytes()), "rt")
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				lwant, err := seedLoadEdgeList(bytes.NewReader(el.Bytes()), "rt")
				if err != nil {
					t.Fatalf("seed %d: oracle: %v", seed, err)
				}
				if !bytes.Equal(EncodeFGR(lg), EncodeFGR(lwant)) {
					t.Fatalf("seed %d: LoadEdgeList differs from the parent's on:\n%s", seed, el.String())
				}
				kg, err := ApplyKeywords(lg, bytes.NewReader(kw.Bytes()))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				kwant, err := seedApplyKeywords(lwant, bytes.NewReader(kw.Bytes()))
				if err != nil {
					t.Fatalf("seed %d: oracle: %v", seed, err)
				}
				if !bytes.Equal(EncodeFGR(kg), EncodeFGR(kwant)) {
					t.Fatalf("seed %d: ApplyKeywords differs from the parent's on:\n%s", seed, kw.String())
				}

				// Adjacency list, record lines shuffled.
				adj := adjacencyText(g, rand.New(rand.NewSource(seed)))
				ag, err := LoadAdjacencyList(strings.NewReader(adj), "adj")
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, adj)
				}
				awant, err := seedLoadAdjacencyList(strings.NewReader(adj), "adj")
				if err != nil {
					t.Fatalf("seed %d: oracle: %v", seed, err)
				}
				if !bytes.Equal(EncodeFGR(ag), EncodeFGR(awant)) {
					t.Fatalf("seed %d: LoadAdjacencyList differs from the parent's on:\n%s", seed, adj)
				}
			}
		})
	}
}

// randomEdgeListText draws an edge list the way people write them: records
// out of order, vertices declared late, twice or never, label lists with
// duplicates and empty elements, comments, blank lines, tabs, CRLF, signs
// and leading zeros — and now and then a line that must be refused.
func randomEdgeListText(r *rand.Rand) string {
	names := []string{"red", "blue", "a", "b", "gamma/δ", "7", "x,y", "p,,q,p", ","}
	seps := []string{" ", " ", "\t", "  ", " \t "}
	ends := []string{"\n", "\n", "\r\n", " \n", "\n\n"}
	id := func(n int) string {
		switch r.Intn(12) {
		case 0:
			return fmt.Sprintf("+%d", r.Intn(n))
		case 1:
			return fmt.Sprintf("00%d", r.Intn(n))
		}
		return fmt.Sprint(r.Intn(n))
	}
	n := 2 + r.Intn(30)
	var sb strings.Builder
	for i := r.Intn(80); i >= 0; i-- {
		sep := seps[r.Intn(len(seps))]
		switch r.Intn(20) {
		case 0:
			sb.WriteString("# " + names[r.Intn(len(names))])
		case 1:
			sb.WriteString([]string{"v", "e 1", "q 1 2", "e 1 1", "v -1 a", "e 2 x", "v 1x"}[r.Intn(7)])
		case 2, 3, 4, 5, 6:
			sb.WriteString("v" + sep + id(n))
			if r.Intn(5) > 0 {
				sb.WriteString(sep + names[r.Intn(len(names))])
			}
		default:
			sb.WriteString("e" + sep + id(n) + sep + id(n+3))
			if r.Intn(3) == 0 {
				sb.WriteString(sep + names[r.Intn(len(names))] + sep + "ignored")
			}
		}
		sb.WriteString(ends[r.Intn(len(ends))])
	}
	return strings.TrimSuffix(sb.String(), []string{"", "\n"}[r.Intn(2)])
}

// TestLoadEdgeListAgainstSeed: on hand-written-style text the byte-level
// parser accepts exactly what the parent's Scanner/Fields/Atoi loader
// accepts, and builds the same bytes.
func TestLoadEdgeListAgainstSeed(t *testing.T) {
	accepted := 0
	for seed := int64(1); seed <= 400; seed++ {
		text := randomEdgeListText(rand.New(rand.NewSource(seed)))
		g, err := LoadEdgeList(strings.NewReader(text), "txt")
		want, wantErr := seedLoadEdgeList(strings.NewReader(text), "txt")
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: err=%v, the parent's loader says %v, on:\n%s", seed, err, wantErr, text)
		}
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) || pe.File != "txt" || pe.Line < 1 || pe.Reason == "" {
				t.Fatalf("seed %d: %#v is not a filled-in *ParseError", seed, err)
			}
			continue
		}
		accepted++
		if !bytes.Equal(EncodeFGR(g), EncodeFGR(want)) {
			t.Fatalf("seed %d: differs from the parent's loader on:\n%s", seed, text)
		}
	}
	if accepted < 40 {
		t.Fatalf("only %d of 400 texts were accepted; the generator no longer tests the success path", accepted)
	}
}

// TestCountRecords: the count pass finds the v and e records the parser
// reads, whatever the chunk size, and leaves the reader where it found it;
// on a well-formed edge list the builder's arrays come out exactly full.
func TestCountRecords(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		text := randomEdgeListText(rand.New(rand.NewSource(seed)))
		var wantV, wantE int
		in := newRecords(strings.NewReader(text), "txt")
		for kind, ok := in.next(); ok; kind, ok = in.next() {
			switch string(kind) {
			case "v":
				wantV++
			case "e":
				wantE++
			}
		}
		for _, chunk := range []int{1, 3, 64 << 10} {
			r := strings.NewReader("skipped\n" + text)
			r.Seek(8, io.SeekStart)
			v, e, err := countRecords(r, make([]byte, chunk))
			if err != nil || v != wantV || e != wantE {
				t.Fatalf("seed %d, %d-byte chunks: counted %d v and %d e records (%v), the parser reads %d and %d, in:\n%s",
					seed, chunk, v, e, err, wantV, wantE, text)
			}
			if at, _ := r.Seek(0, io.SeekCurrent); at != 8 {
				t.Fatalf("seed %d: the count left the reader at %d, not 8", seed, at)
			}
		}
	}

	var text bytes.Buffer
	if err := WriteEdgeList(&text, multiBuilder(rand.New(rand.NewSource(3))).Build()); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(append([]byte("# read past\n"), text.Bytes()...))
	r.Seek(12, io.SeekStart)
	g, err := LoadEdgeList(r, "exact")
	if err != nil {
		t.Fatal(err)
	}
	if cap(g.esrc) != g.NumEdges() || cap(g.edst) != g.NumEdges() || cap(g.vlab) != len(g.vlab) {
		t.Errorf("arrays of %d, %d and %d for %d edges and %d vertex labels: want exactly those",
			cap(g.esrc), cap(g.edst), cap(g.vlab), g.NumEdges(), len(g.vlab))
	}
}

// failingReader serves text and then fails at the same offset on every
// pass; seekErr fails every Seek instead.
type failingReader struct {
	*strings.Reader
	seekErr error
}

var errDisk = errors.New("disk on fire")

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.Reader.Read(p)
	if err == io.EOF {
		err = errDisk
	}
	return n, err
}

func (f *failingReader) Seek(off int64, whence int) (int64, error) {
	if f.seekErr != nil {
		return 0, f.seekErr
	}
	return f.Reader.Seek(off, whence)
}

// TestLoadEdgeListReadErrors: a read error ends the count pass quietly and
// the parse reports it where it meets it — after a parse error on an
// earlier line, which keeps its line number; a reader that cannot rewind is
// refused before anything is parsed.
func TestLoadEdgeListReadErrors(t *testing.T) {
	_, err := LoadEdgeList(&failingReader{Reader: strings.NewReader("v 0 a\ne 0 1\n")}, "f")
	if !errors.Is(err, errDisk) || err.Error() != "graph: reading f: disk on fire" {
		t.Errorf("read error: %v", err)
	}
	_, err = LoadEdgeList(&failingReader{Reader: strings.NewReader("v 0 a\nq 1\ne 0 1\n")}, "f")
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 2 {
		t.Errorf("parse error before a read error: %v, want line 2", err)
	}
	_, err = LoadEdgeList(&failingReader{Reader: strings.NewReader("v 0 a\n"), seekErr: errDisk}, "f")
	if !errors.Is(err, errDisk) {
		t.Errorf("seek error: %v", err)
	}
}

// goldenFGR pins the SHA-256 of the .fgr each checked-in text graph converts
// to, generated at the parent commit (PR 13) with `fractal -convert`.
var goldenFGR = map[string]string{
	"ba300.el":        "1f7af15c44e518e8c6afeaebb81d240b15795732d424cedf68f5c288291dff15",
	"kg60.el":         "4ec8ca6ce6d78c14f658c7b3a1de8e4aacff02f7714f691fba25ae5a91039194", // with kg60.el.kw
	"multi.el":        "2a863c24968bd4e7bea3f41f9649e6c8ed453faad2e3e258bcabac8fe17d72a3", // with multi.el.kw
	"community.graph": "2ab05c16b9c91d6984865e0b58c72394a971f7064646fa63f47ad0e495d54f88",
	"wheel.graph":     "1f996dc28b1f76c123e8b50234f4f8f66fc200cb5e22342053af4ceba8b61cd9",
}

func TestGoldenFGR(t *testing.T) {
	for file, want := range goldenFGR {
		g, err := LoadFile(filepath.Join("testdata", "golden", file))
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), "out.fgr")
		if err := SaveFGR(out, g); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: .fgr sha256 %s, want %s", file, got, want)
		}
	}
}

// TestParseErrors pins the typed failure of every text loader.
func TestParseErrors(t *testing.T) {
	load := map[string]func(string) error{
		"el": func(s string) error { _, err := LoadEdgeList(strings.NewReader(s), "f"); return err },
		"graph": func(s string) error {
			_, err := LoadAdjacencyList(strings.NewReader(s), "f")
			return err
		},
		"kw": func(s string) error { _, err := ApplyKeywords(buildPath(2), strings.NewReader(s)); return err },
	}
	cases := []struct {
		format, text string
		line         int
		reason       string
	}{
		// Hostile ids are refused before anything is sized by them.
		{"el", "v 0\nv 2147483647 x\n", 2, "bad vertex id"},
		{"el", "e 0 99999999999999999999\n", 1, "bad endpoint"},
		{"el", "e 0 4294967297\n", 1, "bad endpoint"},
		{"graph", "0 1 2147483647\n", 1, "bad neighbor"},
		{"graph", "0 4294967296\n", 1, "bad label"},
		{"kw", "v 2147483647 k\n", 1, "bad id"},
		{"el", "v 0\n\n# c\ne 0 0\n", 4, "self-loop"},
		{"el", "v 0 a\nw 1\n", 2, "unknown record"},
		{"kw", "e 7 k\n", 1, "edge 7 out of range"},
		// An edge listed from one endpoint only used to vanish (lower
		// endpoint silent) or load one-sided (higher endpoint silent).
		{"graph", "0 1\n1 1 0\n2 1 0 1\n", 2, "vertex 1 lists neighbor 0, but vertex 0 does not list 1"},
		{"graph", "0 1 1 2\n1 1 0\n2 1\n", 1, "vertex 0 lists neighbor 2, but vertex 2 does not list 0"},
		{"graph", "0 1 1 1\n1 1 0\n", 1, "vertex 0 lists neighbor 1, but vertex 1 does not list 0"},
		{"graph", "0 1 5\n", 1, "vertex 0 lists neighbor 5, but vertex 5 does not list 0"},
	}
	for _, c := range cases {
		err := load[c.format](c.text)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s %q: err = %v, want a *ParseError", c.format, c.text, err)
			continue
		}
		if pe.Line != c.line || !strings.Contains(pe.Reason, c.reason) || !strings.Contains(pe.File, "f") && c.format != "kw" {
			t.Errorf("%s %q: %v, want line %d and %q", c.format, c.text, err, c.line, c.reason)
		}
	}
	// The issue's example: this file used to load as |E|=0 and count no
	// triangle. Written symmetrically it loads with its three edges.
	g, err := LoadAdjacencyList(strings.NewReader("0 1 1 2\n1 1 0 2\n2 1 0 1\n"), "tri")
	if err != nil || g.NumEdges() != 3 {
		t.Errorf("symmetric triangle: %v, %v", g, err)
	}
}

// TestImplicitVertexCost: a vertex that exists only because a higher id was
// named costs the builder nothing and the graph its adjacency offset — no
// label offsets for a family nobody wrote, no cursor array in Build (it was
// 12 bytes allocated, 8 retained; 48 bytes of slice headers before that).
func TestImplicitVertexCost(t *testing.T) {
	const n = 1 << 20
	text := fmt.Sprintf("v %d\n", n-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := LoadEdgeList(strings.NewReader(text), "sparse")
	runtime.ReadMemStats(&after)
	if err != nil || g.NumVertices() != n {
		t.Fatalf("%v, %v", g, err)
	}
	if perVertex := float64(after.TotalAlloc-before.TotalAlloc) / n; perVertex > 4.5 {
		t.Errorf("%.1f bytes allocated per implicit vertex, want 4 (all retained)", perVertex)
	}
}

// textGraph returns a connected single-label graph with m edges as .el and
// .graph text.
func textGraph(m int) (el, adj string) {
	r := rand.New(rand.NewSource(int64(m)))
	n := m / 3
	b := NewBuilder("allocs")
	for i := 0; i < n; i++ {
		b.AddVertex(1)
	}
	for b.NumEdges() < m {
		if u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n)); u != v {
			b.MustAddEdge(u, v)
		}
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		panic(err)
	}
	return buf.String(), adjacencyText(g, r)
}

// TestTextLoadAllocs is the allocation gate of the ingest path: a text load
// allocates per file — the line buffer, the builder's arrays and their
// growth steps, the graph's arrays — and never per line, so a hundred times
// the edges may add growth steps and nothing else: at most log1.25(100) = 21
// for each of the two arrays that grow by append (the adjacency loader's
// line table, and its vertex label run table when records come out of
// order; the edge loader sizes what it grows from a count of its records),
// against 1.7 million allocations in the Scanner/Fields loader at 100k
// edges.
func TestTextLoadAllocs(t *testing.T) {
	el1k, adj1k := textGraph(1_000)
	el100k, adj100k := textGraph(100_000)
	for _, c := range []struct {
		name         string
		small, large string
		load         func(string) (*Graph, error)
	}{
		{"LoadEdgeList", el1k, el100k, func(s string) (*Graph, error) { return LoadEdgeList(strings.NewReader(s), "g") }},
		{"LoadAdjacencyList", adj1k, adj100k, func(s string) (*Graph, error) { return LoadAdjacencyList(strings.NewReader(s), "g") }},
	} {
		allocs := func(text string) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := c.load(text); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(c.small), allocs(c.large)
		t.Logf("%s: %.0f allocs at 1k edges, %.0f at 100k", c.name, small, large)
		if small > 64 || large > small+42 {
			t.Errorf("%s: %.0f allocs at 1k edges, %.0f at 100k: want a small constant plus growth steps", c.name, small, large)
		}
	}
}
