package graph

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// Fuzz targets for the set-operation kernels and the text loaders. Seed
// corpora live under testdata/fuzz/<Target>/ and run as ordinary test cases
// on every plain `go test`; `go test -fuzz=<Target>` explores further.

// bytesToSorted decodes one byte per element and sorts ascending —
// duplicates and empty inputs are representable, which is exactly the input
// space the kernels must tolerate.
func bytesToSorted(data []byte) []int32 {
	out := make([]int32, len(data))
	for i, b := range data {
		out[i] = int32(b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func FuzzIntersect(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 3, 5}, []byte{2, 3, 8})
	f.Add([]byte{7, 7, 7}, []byte{7, 9})
	f.Add([]byte{1}, []byte{0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	// |b| >= GallopRatio·|a| with duplicates in a: DiffSorted's gallop branch.
	f.Add([]byte{2, 2, 9, 40}, bytes.Repeat([]byte{1, 2, 3, 5, 8, 13, 21, 34}, 5))
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := bytesToSorted(ab)
		b := bytesToSorted(bb)
		got := IntersectSorted(a, b, nil)
		want := naiveIntersect(a, b)
		if !equalInt32(got, want) {
			t.Fatalf("IntersectSorted(%v, %v) = %v, want %v", a, b, got, want)
		}
		if diff := DiffSorted(a, b, nil); !equalInt32(diff, naiveDiff(a, b)) {
			t.Fatalf("DiffSorted(%v, %v) = %v, want %v", a, b, diff, naiveDiff(a, b))
		}
	})
}

func FuzzGallop(f *testing.F) {
	f.Add([]byte{}, byte(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(5))
	f.Add([]byte{4, 4, 4, 4}, byte(4))
	f.Add([]byte{250}, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, x byte) {
		a := bytesToSorted(data)
		got := Gallop(a, int32(x))
		want := sort.Search(len(a), func(i int) bool { return a[i] >= int32(x) })
		if got != want {
			t.Fatalf("Gallop(%v, %d) = %d, want %d", a, x, got, want)
		}
	})
}

// largestNumber returns the largest magnitude among the numeric tokens of
// text. Ids cost memory in proportion to their value (8 bytes each in the
// production loaders, 48 and more in the retained seed loaders), so the
// fuzz target bounds what it feeds to each.
func largestNumber(text string) int {
	largest := 0
	for _, tok := range strings.Fields(text) {
		if n, err := strconv.Atoi(tok); err == nil {
			largest = max(largest, n, -n)
		} else if errors.Is(err, strconv.ErrRange) {
			return math.MaxInt
		}
	}
	return largest
}

// asciiSeparated reports whether every white-space rune of text is ASCII.
// The byte-level parsers split fields on ASCII white space only; the seed
// loaders' strings.Fields also split on U+0085, U+00A0 and the Unicode space
// separators, which is the one intended difference in what they accept.
func asciiSeparated(text string) bool {
	return strings.IndexFunc(text, func(r rune) bool { return r > unicode.MaxASCII && unicode.IsSpace(r) }) < 0
}

func FuzzLoadEdgeList(f *testing.F) {
	f.Add("v 0 red\nv 1 blue\ne 0 1 knows\n")
	f.Add("e 0 1\ne 1 2\ne 0 2\n")
	f.Add("# comment\n\nv 3\n")
	f.Add("v -5 x\n")
	f.Add("e -1 2\n")
	f.Add("0 1 1 2\n1 0 0 2\n2 1 0 1\n")
	f.Add("0 1\n1 1 0\n2 1 0 1\n")
	f.Add("v 70000\ne 0 2147483647\n")
	f.Add("e 1 0 a,,b,a\r\nv 1 x,y\nv 1 z")
	f.Fuzz(func(t *testing.T, text string) {
		largest := largestNumber(text)
		if largest > 1<<22 {
			t.Skip("ids too large for fuzzing")
		}
		small := largest <= 1<<16 // what the seed loaders and a text round trip can afford
		differential := small && asciiSeparated(text)

		// Neither loader may panic; a *ParseError is a valid outcome, and the
		// only one besides a graph.
		g, err := LoadEdgeList(strings.NewReader(text), "fuzz")
		if pe := (*ParseError)(nil); err != nil && !errors.As(err, &pe) {
			t.Fatalf("LoadEdgeList: %v is not a *ParseError", err)
		}
		if differential {
			want, wantErr := seedLoadEdgeList(strings.NewReader(text), "fuzz")
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("LoadEdgeList: %v, the seed loader says %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(EncodeFGR(g), EncodeFGR(want)) {
				t.Fatal("LoadEdgeList builds another graph than the seed loader")
			}
		}
		if err == nil {
			checkGraphInvariants(t, g)
		}
		if err == nil && small {
			// Round-trip: writing and reloading preserves the shape.
			var buf bytes.Buffer
			if err := WriteEdgeList(&buf, g); err != nil {
				t.Fatalf("WriteEdgeList: %v", err)
			}
			g2, err := LoadEdgeList(bytes.NewReader(buf.Bytes()), "fuzz-rt")
			if err != nil {
				t.Fatalf("round-trip reload: %v", err)
			}
			if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
				t.Fatalf("round-trip: %d/%d vertices/edges became %d/%d",
					g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
			}
		}

		g, err = LoadAdjacencyList(strings.NewReader(text), "fuzz")
		var pe *ParseError
		if err != nil && !errors.As(err, &pe) {
			t.Fatalf("LoadAdjacencyList: %v is not a *ParseError", err)
		}
		if err == nil {
			checkGraphInvariants(t, g)
		}
		// The seed loader has no symmetry check: it keeps what the lower
		// endpoint lists, so a one-sided file is the one input it accepts
		// and the production loader refuses.
		if differential && !(err != nil && strings.Contains(pe.Reason, "does not list")) {
			want, wantErr := seedLoadAdjacencyList(strings.NewReader(text), "fuzz")
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("LoadAdjacencyList: %v, the seed loader says %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(EncodeFGR(g), EncodeFGR(want)) {
				t.Fatal("LoadAdjacencyList builds another graph than the seed loader")
			}
		}
	})
}

// checkGraphInvariants validates the CSR structure a loaded graph must
// satisfy: adjacency sorted by (neighbor, edge), aligned incident lists, and
// degree consistency.
func checkGraphInvariants(t *testing.T, g *Graph) {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		nbr := g.Neighbors(VertexID(v))
		inc := g.IncidentEdges(VertexID(v))
		if len(nbr) != len(inc) {
			t.Fatalf("vertex %d: %d neighbors but %d incident edges", v, len(nbr), len(inc))
		}
		if g.Degree(VertexID(v)) != len(nbr) {
			t.Fatalf("vertex %d: Degree %d != len(Neighbors) %d", v, g.Degree(VertexID(v)), len(nbr))
		}
		for i, u := range nbr {
			if i > 0 && u < nbr[i-1] {
				t.Fatalf("vertex %d: neighbors not sorted: %v", v, nbr)
			}
			if e := g.EdgeByID(inc[i]); !e.Has(VertexID(v)) || e.Other(VertexID(v)) != u {
				t.Fatalf("vertex %d: incident edge %d does not lead to neighbor %d", v, inc[i], u)
			}
		}
	}
}
