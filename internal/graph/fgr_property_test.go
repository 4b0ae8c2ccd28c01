package graph

// Property tests for the CSR loader contract and the .fgr canonical
// encoding. checkCSRInvariants restates every invariant the kernels rely on
// directly against the internal arrays — independently of validateCSR, so a
// bug in the shared validation logic cannot hide itself — and the
// byte-identity tests pin EncodeFGR as a canonical form:
// build → write → load → write must reproduce the exact same bytes.

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// checkCSRInvariants asserts the full CSR loader contract on g's arrays.
func checkCSRInvariants(t *testing.T, label string, g *Graph) {
	t.Helper()
	numV, numE := g.NumVertices(), g.NumEdges()

	type offCheck struct {
		name string
		off  []int32
		n    int
		want int // expected len(off)
	}
	offsets := []offCheck{
		{"adjOff", g.adjOff, len(g.adjV), numV + 1},
		{"vlabOff", g.vlabOff, len(g.vlab), numV + 1},
		{"elabOff", g.elabOff, len(g.elab), numE + 1},
		{"vkwOff", g.vkwOff, len(g.vkw), numV + 1},
		{"ekwOff", g.ekwOff, len(g.ekw), numE + 1},
	}
	payloads := map[string][]Label{"vlabOff": g.vlab, "elabOff": g.elab, "vkwOff": g.vkw, "ekwOff": g.ekw}
	if !g.hasKW && (g.vkwOff != nil || g.ekwOff != nil || len(g.vkw)+len(g.ekw) > 0) {
		t.Fatalf("%s: keyword arrays on a graph without keywords", label)
	}
	for _, o := range offsets {
		if o.off == nil && o.name != "adjOff" {
			// Payload-only: one value per element, one value all share, or
			// none at all — and one form: a payload of one value repeated
			// is held once.
			if o.n > 1 && o.n != o.want-1 {
				t.Fatalf("%s: %s is nil over %d elements, payload has %d entries", label, o.name, o.want-1, o.n)
			}
			if p := payloads[o.name]; o.n > 1 && slices.Max(p) == slices.Min(p) {
				t.Fatalf("%s: %s is nil over %d elements, payload repeats label %d", label, o.name, o.n, p[0])
			}
			continue
		}
		if len(o.off) != o.want {
			t.Fatalf("%s: %s has %d entries, want %d", label, o.name, len(o.off), o.want)
		}
		if o.off[0] != 0 {
			t.Fatalf("%s: %s starts at %d, want 0", label, o.name, o.off[0])
		}
		identity := true
		for i := 1; i < len(o.off); i++ {
			if o.off[i] < o.off[i-1] {
				t.Fatalf("%s: %s decreases at %d: %d -> %d", label, o.name, i, o.off[i-1], o.off[i])
			}
			identity = identity && o.off[i] == int32(i)
		}
		if int(o.off[len(o.off)-1]) != o.n {
			t.Fatalf("%s: %s ends at %d, payload has %d entries", label, o.name, o.off[len(o.off)-1], o.n)
		}
		// One in-memory form: offsets that say nothing are not kept.
		if o.name != "adjOff" && (identity || o.n == 0) {
			t.Fatalf("%s: %s is materialized but plain (identity=%v, payload %d)", label, o.name, identity, o.n)
		}
	}
	if len(g.adjV) != 2*numE {
		t.Fatalf("%s: adjacency holds %d incidences, want 2|E|=%d", label, len(g.adjV), 2*numE)
	}

	// Degree sums: per-vertex degrees must add up to exactly 2|E|.
	degSum := 0
	for v := 0; v < numV; v++ {
		degSum += g.Degree(VertexID(v))
	}
	if degSum != 2*numE {
		t.Fatalf("%s: degree sum %d, want 2|E|=%d", label, degSum, 2*numE)
	}

	// Edge endpoints: in range and canonically oriented src < dst.
	for e := 0; e < numE; e++ {
		s, d := g.esrc[e], g.edst[e]
		if s < 0 || int(s) >= numV || d < 0 || int(d) >= numV || s >= d {
			t.Fatalf("%s: edge %d endpoints (%d,%d) invalid for |V|=%d", label, e, s, d, numV)
		}
	}

	// Adjacency runs: in-range ids, strictly sorted by (neighbor, edge) —
	// which also means deduplicated — consistent with the edge arrays, and
	// every edge present exactly twice.
	// The edge ids are read through IncidentEdges, which indexes them on a
	// built graph.
	seen := make([]int, numE)
	for v := 0; v < numV; v++ {
		lo, hi := g.adjOff[v], g.adjOff[v+1]
		ids := g.IncidentEdges(VertexID(v))
		if len(ids) != int(hi-lo) {
			t.Fatalf("%s: vertex %d has %d neighbors and %d incident edges", label, v, hi-lo, len(ids))
		}
		for i := lo; i < hi; i++ {
			w, e := g.adjV[i], ids[i-lo]
			if w < 0 || int(w) >= numV || e < 0 || int(e) >= numE {
				t.Fatalf("%s: vertex %d incidence (%d,%d) out of range", label, v, w, e)
			}
			if i > lo && (g.adjV[i-1] > w || (g.adjV[i-1] == w && ids[i-lo-1] >= e)) {
				t.Fatalf("%s: adjacency run of vertex %d not strictly sorted by (neighbor, edge)", label, v)
			}
			s, d := g.esrc[e], g.edst[e]
			if !(s == VertexID(v) && d == w) && !(s == w && d == VertexID(v)) {
				t.Fatalf("%s: incidence (%d,%d) disagrees with edge %d = (%d,%d)", label, v, w, e, s, d)
			}
			seen[e]++
		}
	}
	for e, n := range seen {
		if n != 2 {
			t.Fatalf("%s: edge %d appears %d times in the adjacency, want 2", label, e, n)
		}
	}

	// Label and keyword runs: strictly increasing (sorted + deduplicated).
	runs := []struct {
		name   string
		off    []int32
		packed []Label
	}{
		{"vlab", g.vlabOff, g.vlab},
		{"elab", g.elabOff, g.elab},
		{"vkw", g.vkwOff, g.vkw},
		{"ekw", g.ekwOff, g.ekw},
	}
	for _, rn := range runs {
		for i := 1; i < len(rn.off); i++ {
			for j := rn.off[i-1] + 1; j < rn.off[i]; j++ {
				if rn.packed[j-1] >= rn.packed[j] {
					t.Fatalf("%s: %s run %d not strictly sorted", label, rn.name, i-1)
				}
			}
		}
	}

	// Header label census.
	distinct := map[Label]struct{}{}
	for _, l := range g.vlab {
		distinct[l] = struct{}{}
	}
	for _, l := range g.elab {
		distinct[l] = struct{}{}
	}
	if len(distinct) != g.numLabel {
		t.Fatalf("%s: numLabel=%d but %d distinct labels", label, g.numLabel, len(distinct))
	}
}

// TestCSRInvariantsProperty checks the loader contract over the randomized
// recipes, on both built graphs and graphs decoded back from .fgr bytes.
func TestCSRInvariantsProperty(t *testing.T) {
	for _, rec := range oracleRecipes {
		t.Run(rec.name, func(t *testing.T) {
			for seed := int64(0); seed < 16; seed++ {
				g := rec.build(rand.New(rand.NewSource(seed))).Build()
				checkCSRInvariants(t, "built", g)
				dec, err := DecodeFGR(EncodeFGR(g))
				if err != nil {
					t.Fatalf("seed %d: decode: %v", seed, err)
				}
				checkCSRInvariants(t, "decoded", dec)
			}
		})
	}
}

// TestFGRByteIdentity pins the canonical-encoding property:
// build → write → load → write yields byte-identical files, through both the
// in-memory decoder and the mmap loader.
func TestFGRByteIdentity(t *testing.T) {
	for _, rec := range oracleRecipes {
		t.Run(rec.name, func(t *testing.T) {
			for seed := int64(0); seed < 16; seed++ {
				g := rec.build(rand.New(rand.NewSource(seed))).Build()
				enc := EncodeFGR(g)
				if !bytes.Equal(EncodeFGR(g), enc) {
					t.Fatalf("seed %d: EncodeFGR is not deterministic", seed)
				}
				dec, err := DecodeFGR(enc)
				if err != nil {
					t.Fatalf("seed %d: decode: %v", seed, err)
				}
				if !bytes.Equal(EncodeFGR(dec), enc) {
					t.Fatalf("seed %d: decode→encode not byte-identical", seed)
				}

				path := filepath.Join(t.TempDir(), "g.fgr")
				if err := SaveFGR(path, g); err != nil {
					t.Fatalf("seed %d: save: %v", seed, err)
				}
				onDisk, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(onDisk, enc) {
					t.Fatalf("seed %d: SaveFGR bytes differ from EncodeFGR", seed)
				}
				mapped, err := LoadFGR(path)
				if err != nil {
					t.Fatalf("seed %d: load: %v", seed, err)
				}
				if !bytes.Equal(EncodeFGR(mapped), enc) {
					mapped.Close()
					t.Fatalf("seed %d: load→encode not byte-identical", seed)
				}
				if err := mapped.Close(); err != nil {
					t.Fatalf("seed %d: close: %v", seed, err)
				}
			}
		})
	}
}

// TestFGRCloseIdempotent pins Close semantics: a mapped graph closes once,
// and further Close calls (and closing never-mapped graphs) are no-ops.
func TestFGRCloseIdempotent(t *testing.T) {
	g := erBuilder(rand.New(rand.NewSource(7))).Build()
	if g.Mapped() {
		t.Fatal("built graph reports Mapped")
	}
	if err := g.Close(); err != nil {
		t.Fatalf("closing a built graph: %v", err)
	}
	path := filepath.Join(t.TempDir(), "g.fgr")
	if err := SaveFGR(path, g); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadFGR(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() {
		t.Fatal("LoadFGR graph does not report Mapped")
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if mapped.Mapped() {
		t.Fatal("graph still reports Mapped after Close")
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
