package graph

// Microbenchmarks for the CSR + .fgr storage layer (EXPERIMENTS.md):
// load time of a memory-mapped .fgr against parsing the same graph from a
// labeled edge list, the live heap each load leaves behind
// (runtime.MemStats), and scan throughput of the packed flat arrays against
// the retained seed representation (oraclegraph_test.go) they replaced —
// CSR adjacency both before and after, but per-vertex []Label headers and
// []Edge structs on the seed side.

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// benchBuilder populates a deterministic ER-style multigraph big enough
// that load and scan costs dominate fixed overheads.
func benchBuilder() *ops {
	r := rand.New(rand.NewSource(97))
	const n, m = 5000, 40000
	b := &ops{name: "bench-fgr"}
	for i := 0; i < n; i++ {
		b.AddVertex(Label(r.Intn(8)))
	}
	for i := 0; i < m; i++ {
		u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n))
		if u == v {
			continue
		}
		b.MustAddEdge(u, v, Label(r.Intn(4)))
	}
	return b
}

func benchGraph() *Graph { return benchBuilder().Build() }

// benchFiles writes the benchmark graph in both on-disk formats and returns
// their paths.
func benchFiles(tb testing.TB, g *Graph) (fgrPath, elPath string) {
	tb.Helper()
	dir := tb.TempDir()
	fgrPath = filepath.Join(dir, "bench.fgr")
	if err := SaveFGR(fgrPath, g); err != nil {
		tb.Fatal(err)
	}
	elPath = filepath.Join(dir, "bench.el")
	f, err := os.Create(elPath)
	if err != nil {
		tb.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return fgrPath, elPath
}

// liveHeapDelta measures the live heap bytes one load leaves behind, via
// before/after GC-settled MemStats readings.
func liveHeapDelta(load func() *Graph) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := load()
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if delta < 0 {
		delta = 0
	}
	g.Close()
	return float64(delta)
}

// peakHeapDelta runs one load while a second goroutine samples HeapInuse,
// and returns the highest reading above the GC-settled level before the
// load: what the load adds to the process's peak RSS, garbage included.
func peakHeapDelta(load func() *Graph) float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapInuse
	stop, sampled := make(chan struct{}), make(chan uint64)
	go func() {
		var ms runtime.MemStats
		peak := base
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			default:
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapInuse)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	g := load()
	runtime.ReadMemStats(&ms)
	close(stop)
	peak := max(<-sampled, ms.HeapInuse)
	g.Close()
	return float64(peak - base)
}

// BenchmarkFGRLoad times bringing the benchmark graph up from disk: the
// mmap'd binary format against parsing the labeled edge list. The
// live-heap-bytes metric shows what each load keeps resident on the Go heap
// (the .fgr arrays alias the mapping, so its heap cost is near zero),
// peak-heap-bytes what it needs on the way there, and alloc-B/edge everything
// it allocates, garbage included, per edge of the graph.
func BenchmarkFGRLoad(b *testing.B) {
	g := benchGraph()
	fgrPath, elPath := benchFiles(b, g)
	wantV, wantE := g.NumVertices(), g.NumEdges()
	load := map[string]func() *Graph{
		"fgr": func() *Graph {
			lg, err := LoadFGR(fgrPath)
			if err != nil {
				b.Fatal(err)
			}
			return lg
		},
		"edgelist": func() *Graph {
			lg, err := LoadFile(elPath)
			if err != nil {
				b.Fatal(err)
			}
			return lg
		},
	}
	for _, name := range []string{"fgr", "edgelist"} {
		b.Run(name, func(b *testing.B) {
			live := liveHeapDelta(load[name])
			peak := peakHeapDelta(load[name])
			total := allocated(func() { load[name]().Close() })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lg := load[name]()
				if lg.NumVertices() != wantV || lg.NumEdges() != wantE {
					b.Fatalf("loaded |V|=%d |E|=%d, want |V|=%d |E|=%d",
						lg.NumVertices(), lg.NumEdges(), wantV, wantE)
				}
				lg.Close()
			}
			b.ReportMetric(live, "live-heap-bytes")
			b.ReportMetric(peak, "peak-heap-bytes")
			b.ReportMetric(float64(total)/float64(wantE), "alloc-B/edge")
		})
	}
}

// benchBA is a preferential-attachment graph at the size of the repository
// benchmark's small_jobs_el input (BA(120 000, 3), one label).
func benchBA() *Graph {
	r := rand.New(rand.NewSource(7))
	const n, mPer = 120_000, 3
	b := NewBuilder("bench-ba")
	urn := make([]VertexID, 0, 2*n*mPer)
	for v := VertexID(0); v < n; v++ {
		b.AddVertex(1)
		for d := 0; d < mPer && v > 0; d++ {
			u := VertexID(r.Intn(int(v)))
			if len(urn) > 0 && d > 0 {
				u = urn[r.Intn(len(urn))]
			}
			if u != v {
				b.MustAddEdge(u, v)
				urn = append(urn, u, v)
			}
		}
	}
	return b.Build()
}

// rebuilder returns a builder holding what g holds.
func rebuilder(g *Graph) *Builder {
	b := NewBuilder(g.name)
	b.dict = g.dict
	b.reserve(g.NumEdges(), 0)
	for v := 0; v < g.NumVertices(); v++ {
		id := b.AddVertex(g.VertexLabels(VertexID(v))...)
		if ks := g.VertexKeywords(VertexID(v)); ks != nil {
			b.SetVertexKeywords(id, ks...)
		}
	}
	for id := 0; id < g.NumEdges(); id++ {
		e := g.EdgeByID(EdgeID(id))
		nid := b.MustAddEdge(e.Src, e.Dst, e.Labels...)
		if ks := g.EdgeKeywords(EdgeID(id)); ks != nil {
			b.SetEdgeKeywords(nid, ks...)
		}
	}
	return b
}

// renumbered returns the one-label graph g renumbered the way the repository
// benchmark renumbers its inputs: vertices permuted, edges added in random
// order.
func renumbered(g *Graph) *Graph {
	r := rand.New(rand.NewSource(1))
	to := r.Perm(g.NumVertices())
	b := NewBuilder(g.name)
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.VertexLabels(VertexID(v))...)
	}
	for _, id := range r.Perm(g.NumEdges()) {
		s, d := g.EdgeEndpoints(EdgeID(id))
		b.MustAddEdge(VertexID(to[s]), VertexID(to[d]))
	}
	return b.Build()
}

// BenchmarkBuild times Builder.Build alone — label packing, the neighbor
// scatter and per-run sort, the label census — on a builder refilled
// outside the timer, and (/index) the first IncidentEdges call on the graph
// it returns, which indexes the edge ids: on the preferential-attachment
// graph as generated, its edges nearly ordered by endpoint, and on the same
// edges renumbered, which is what every text load of the repository
// benchmark reads. alloc-B/edge is what one Build or index allocates per
// edge (8 is the neighbor adjacency, 8 the index), held-B/edge what the
// built graph holds before it is indexed.
func BenchmarkBuild(b *testing.B) {
	ordered := benchBA()
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"ordered", ordered}, {"random", renumbered(ordered)}} {
		b.Run(c.name, func(b *testing.B) {
			g := c.g
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bld := rebuilder(g)
				b.StartTimer()
				if got := bld.Build(); got.NumEdges() != g.NumEdges() {
					b.Fatalf("built |E|=%d, want %d", got.NumEdges(), g.NumEdges())
				}
			}
			b.StopTimer()
			bld := rebuilder(g)
			total := allocated(func() { g = bld.Build() })
			b.ReportMetric(float64(total)/float64(g.NumEdges()), "alloc-B/edge")
			b.ReportMetric(float64(heldBytes(g))/float64(g.NumEdges()), "held-B/edge")
		})
		b.Run(c.name+"/index", func(b *testing.B) {
			g := rebuilder(c.g).Build()
			fresh := func() *Graph { // g's arrays under an index not yet built
				h := *g
				h.adjE = new(edgeIndex)
				return &h
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := fresh()
				b.StartTimer()
				h.IncidentEdges(0)
			}
			b.StopTimer()
			h := fresh()
			total := allocated(func() { h.IncidentEdges(0) })
			b.ReportMetric(float64(total)/float64(g.NumEdges()), "alloc-B/edge")
		})
	}
}

// BenchmarkWriteEdgeList times the text writer on the same graph.
func BenchmarkWriteEdgeList(b *testing.B) {
	g := benchBA()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteEdgeList(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighborScan measures adjacency scan throughput through the
// public accessor against the seed representation's identical CSR arrays:
// the flat refactor must not regress the one path that was already packed.
// Both walk every incidence of every vertex once per iteration.
func BenchmarkNeighborScan(b *testing.B) {
	bld := benchBuilder()
	seed := seedBuild(bld.seed())
	g := bld.Build()
	numV := g.NumVertices()
	incid := float64(len(g.adjV))
	var sink int64

	b.Run("csr", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for v := 0; v < numV; v++ {
				for _, w := range g.Neighbors(VertexID(v)) {
					sum += int64(w)
				}
			}
		}
		sink = sum
		b.ReportMetric(incid*float64(b.N)/b.Elapsed().Seconds(), "incid/s")
	})
	b.Run("seed", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for v := 0; v < numV; v++ {
				for _, w := range seed.adjV[seed.adjOff[v]:seed.adjOff[v+1]] {
					sum += int64(w)
				}
			}
		}
		sink = sum
		b.ReportMetric(incid*float64(b.N)/b.Elapsed().Seconds(), "incid/s")
	})
	_ = sink
}

// BenchmarkAttributeScan measures the paths the flat refactor actually
// changed: vertex-label access (packed spans vs one []Label header per
// vertex) and edge-endpoint access (flat esrc/edst vs 32-byte Edge structs
// with embedded slice headers). Each iteration touches every vertex's
// labels and every edge's endpoints once.
func BenchmarkAttributeScan(b *testing.B) {
	bld := benchBuilder()
	seed := seedBuild(bld.seed())
	g := bld.Build()
	numV, numE := g.NumVertices(), g.NumEdges()
	var sink int64

	b.Run("labels/packed", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for v := 0; v < numV; v++ {
				for _, l := range g.VertexLabels(VertexID(v)) {
					sum += int64(l)
				}
			}
		}
		sink = sum
	})
	b.Run("labels/seed", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for v := 0; v < numV; v++ {
				for _, l := range seed.vlabels[v] {
					sum += int64(l)
				}
			}
		}
		sink = sum
	})
	// VertexLabel is the accessor the single-label kernels actually sit on;
	// it reads one word through the offsets without building a subslice.
	b.Run("firstlabel/packed", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for v := 0; v < numV; v++ {
				sum += int64(g.VertexLabel(VertexID(v)))
			}
		}
		sink = sum
	})
	b.Run("firstlabel/seed", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for v := 0; v < numV; v++ {
				if ls := seed.vlabels[v]; len(ls) > 0 {
					sum += int64(ls[0])
				} else {
					sum--
				}
			}
		}
		sink = sum
	})
	b.Run("endpoints/flat", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for e := 0; e < numE; e++ {
				s, d := g.EdgeEndpoints(EdgeID(e))
				sum += int64(s) + int64(d)
			}
		}
		sink = sum
	})
	b.Run("endpoints/seed", func(b *testing.B) {
		var sum int64
		for i := 0; i < b.N; i++ {
			for e := 0; e < numE; e++ {
				ed := seed.edges[e]
				sum += int64(ed.Src) + int64(ed.Dst)
			}
		}
		sink = sum
	})
	_ = sink
}

// BenchmarkFGRDecode times the in-memory decode + validation pass alone —
// the fixed cost LoadFGR pays on top of the mmap syscall.
func BenchmarkFGRDecode(b *testing.B) {
	enc := EncodeFGR(benchGraph())
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFGR(enc); err != nil {
			b.Fatal(err)
		}
	}
}
