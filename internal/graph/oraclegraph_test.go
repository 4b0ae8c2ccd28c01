package graph

// The pre-CSR graph representation and the whole pre-flat ingest path — the
// pointer-rich Builder state ([]Edge, [][]Label), its Build with one
// interface sort per vertex and a map for the label census, and the
// Scanner/Fields/Atoi text loaders — retained verbatim as the differential
// oracle for the flat builder, the sort-free CSR build and the byte-level
// parsers. Randomized recipes record their builder calls as an op list
// (ops) that is replayed into both builders; the tests below pin the full
// accessor surface of the CSR graph (built in memory, decoded from .fgr
// bytes, and loaded through the mmap path) against the seed representation,
// in the style of the subgraph package's oracle_test.go, and ingest_test.go
// pins the .fgr bytes of every ingest path against seedBuilder.Build.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// builderAPI is the mutation surface shared by Builder and seedBuilder.
type builderAPI interface {
	AddVertex(labels ...Label) VertexID
	SetVertexLabels(v VertexID, labels ...Label)
	EnsureVertices(n int)
	AddEdge(u, v VertexID, labels ...Label) (EdgeID, error)
	SetVertexKeywords(v VertexID, kws ...Label)
	SetEdgeKeywords(id EdgeID, kws ...Label)
}

// ops records builder calls for replay into any builderAPI. It tracks
// vertex and edge counts so recipes get the ids a builder would return.
type ops struct {
	name   string
	calls  []func(builderAPI)
	nv, ne int
}

func (o *ops) AddVertex(labels ...Label) VertexID {
	labels = append([]Label(nil), labels...)
	o.calls = append(o.calls, func(b builderAPI) { b.AddVertex(labels...) })
	o.nv++
	return VertexID(o.nv - 1)
}

func (o *ops) SetVertexLabels(v VertexID, labels ...Label) {
	labels = append([]Label(nil), labels...)
	o.calls = append(o.calls, func(b builderAPI) { b.SetVertexLabels(v, labels...) })
}

func (o *ops) EnsureVertices(n int) {
	o.calls = append(o.calls, func(b builderAPI) { b.EnsureVertices(n) })
	o.nv = max(o.nv, n)
}

// AddEdge applies the builders' acceptance rule itself, so a rejected edge
// consumes no id in the recording either.
func (o *ops) AddEdge(u, v VertexID, labels ...Label) (EdgeID, error) {
	labels = append([]Label(nil), labels...)
	o.calls = append(o.calls, func(b builderAPI) { b.AddEdge(u, v, labels...) })
	if u == v || u < 0 || v < 0 || int(u) >= o.nv || int(v) >= o.nv {
		return NilEdge, fmt.Errorf("rejected edge (%d,%d)", u, v)
	}
	o.ne++
	return EdgeID(o.ne - 1), nil
}

func (o *ops) MustAddEdge(u, v VertexID, labels ...Label) EdgeID {
	id, err := o.AddEdge(u, v, labels...)
	if err != nil {
		panic(err)
	}
	return id
}

func (o *ops) SetVertexKeywords(v VertexID, kws ...Label) {
	kws = append([]Label(nil), kws...)
	o.calls = append(o.calls, func(b builderAPI) { b.SetVertexKeywords(v, kws...) })
}

func (o *ops) SetEdgeKeywords(id EdgeID, kws ...Label) {
	kws = append([]Label(nil), kws...)
	o.calls = append(o.calls, func(b builderAPI) { b.SetEdgeKeywords(id, kws...) })
}

// Build replays the recording into a fresh production Builder.
func (o *ops) Build() *Graph {
	b := NewBuilder(o.name)
	for _, call := range o.calls {
		call(b)
	}
	return b.Build()
}

// seed replays the recording into a fresh seedBuilder.
func (o *ops) seed() *seedBuilder {
	b := newSeedBuilder(o.name)
	for _, call := range o.calls {
		call(b)
	}
	return b
}

// seedBuilder is the parent commit's Builder, word for word apart from the
// type name.
type seedBuilder struct {
	name      string
	vlabels   [][]Label
	edges     []Edge
	dict      *Dictionary
	vkeywords [][]Label
	ekeywords [][]Label
	hasKW     bool
}

func newSeedBuilder(name string) *seedBuilder {
	return &seedBuilder{name: name, dict: NewDictionary()}
}

func (b *seedBuilder) Dict() *Dictionary { return b.dict }

func (b *seedBuilder) AddVertex(labels ...Label) VertexID {
	id := VertexID(len(b.vlabels))
	b.vlabels = append(b.vlabels, normLabels(labels))
	b.vkeywords = append(b.vkeywords, nil)
	return id
}

func (b *seedBuilder) SetVertexLabels(v VertexID, labels ...Label) {
	b.vlabels[v] = normLabels(labels)
}

func (b *seedBuilder) EnsureVertices(n int) {
	for len(b.vlabels) < n {
		b.AddVertex()
	}
}

func (b *seedBuilder) AddEdge(u, v VertexID, labels ...Label) (EdgeID, error) {
	if u == v {
		return NilEdge, fmt.Errorf("graph: self-loop on vertex %d rejected", u)
	}
	if int(u) >= len(b.vlabels) || int(v) >= len(b.vlabels) || u < 0 || v < 0 {
		return NilEdge, fmt.Errorf("graph: edge (%d,%d) references unknown vertex", u, v)
	}
	if u > v {
		u, v = v, u
	}
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{Src: u, Dst: v, Labels: normLabels(labels)})
	b.ekeywords = append(b.ekeywords, nil)
	return id, nil
}

func (b *seedBuilder) SetVertexKeywords(v VertexID, kws ...Label) {
	b.vkeywords[v] = normLabels(kws)
	b.hasKW = true
}

func (b *seedBuilder) SetEdgeKeywords(id EdgeID, kws ...Label) {
	b.ekeywords[id] = normLabels(kws)
	b.hasKW = true
}

func (b *seedBuilder) NumVertices() int { return len(b.vlabels) }
func (b *seedBuilder) NumEdges() int    { return len(b.edges) }

// Build is the parent commit's Builder.Build: per-set copies packed into
// offset + payload arrays, scatter, then one sort.Sort per vertex.
func (b *seedBuilder) Build() *Graph {
	n := len(b.vlabels)
	m := len(b.edges)
	g := &Graph{name: b.name, dict: b.dict}

	g.esrc = make([]VertexID, m)
	g.edst = make([]VertexID, m)
	elabs := make([][]Label, m)
	for id, e := range b.edges {
		g.esrc[id], g.edst[id] = e.Src, e.Dst
		elabs[id] = e.Labels
	}
	g.vlabOff, g.vlab = packLabels(b.vlabels)
	g.elabOff, g.elab = packLabels(elabs)

	deg := make([]int32, n+1)
	for id := 0; id < m; id++ {
		deg[g.esrc[id]+1]++
		deg[g.edst[id]+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	g.adjOff = deg
	g.adjV = make([]VertexID, 2*m)
	adjE := make([]EdgeID, 2*m)
	cursor := make([]int32, n)
	copy(cursor, g.adjOff[:n])
	for id := 0; id < m; id++ {
		src, dst := g.esrc[id], g.edst[id]
		i := cursor[src]
		g.adjV[i], adjE[i] = dst, EdgeID(id)
		cursor[src]++
		j := cursor[dst]
		g.adjV[j], adjE[j] = src, EdgeID(id)
		cursor[dst]++
	}
	for v := 0; v < n; v++ {
		lo, hi := g.adjOff[v], g.adjOff[v+1]
		run := adjRun{v: g.adjV[lo:hi], e: adjE[lo:hi]}
		sort.Sort(run)
	}
	g.adjE = indexed(adjE)
	g.numLabel = b.countLabels()
	if g.hasKW = b.hasKW; g.hasKW {
		g.vkwOff, g.vkw = packLabels(b.vkeywords)
		g.ekwOff, g.ekw = packLabels(b.ekeywords)
	}
	g.finalize()
	return g
}

func packLabels(sets [][]Label) (off []int32, packed []Label) {
	off = make([]int32, len(sets)+1)
	total := 0
	for i, s := range sets {
		total += len(s)
		off[i+1] = int32(total)
	}
	packed = make([]Label, 0, total)
	for _, s := range sets {
		packed = append(packed, s...)
	}
	return off, packed
}

func (b *seedBuilder) countLabels() int {
	seen := map[Label]struct{}{}
	for _, ls := range b.vlabels {
		for _, l := range ls {
			seen[l] = struct{}{}
		}
	}
	for _, e := range b.edges {
		for _, l := range e.Labels {
			seen[l] = struct{}{}
		}
	}
	return len(seen)
}

type adjRun struct {
	v []VertexID
	e []EdgeID
}

func (r adjRun) Len() int { return len(r.v) }
func (r adjRun) Less(i, j int) bool {
	if r.v[i] != r.v[j] {
		return r.v[i] < r.v[j]
	}
	return r.e[i] < r.e[j]
}
func (r adjRun) Swap(i, j int) {
	r.v[i], r.v[j] = r.v[j], r.v[i]
	r.e[i], r.e[j] = r.e[j], r.e[i]
}

// normLabels sorts and deduplicates a label set; empty sets become nil.
func normLabels(ls []Label) []Label {
	if len(ls) == 0 {
		return nil
	}
	out := append([]Label(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// The parent commit's text loaders, word for word apart from the builder
// type and the seed prefix.

func seedLoadAdjacencyList(r io.Reader, name string) (*Graph, error) {
	b := newSeedBuilder(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	type pending struct{ u, v VertexID }
	var edges []pending
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: %s:%d: want at least vertex and label", name, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("graph: %s:%d: bad vertex id %q", name, line, fields[0])
		}
		lbl, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: %s:%d: bad label %q", name, line, fields[1])
		}
		b.EnsureVertices(id + 1)
		b.SetVertexLabels(VertexID(id), Label(lbl))
		for _, f := range fields[2:] {
			nb, err := strconv.Atoi(f)
			if err != nil || nb < 0 {
				return nil, fmt.Errorf("graph: %s:%d: bad neighbor %q", name, line, f)
			}
			if id < nb {
				edges = append(edges, pending{VertexID(id), VertexID(nb)})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading %s: %w", name, err)
	}
	for _, e := range edges {
		b.EnsureVertices(int(e.v) + 1)
		if _, err := b.AddEdge(e.u, e.v); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

func seedLoadEdgeList(r io.Reader, name string) (*Graph, error) {
	b := newSeedBuilder(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "v":
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: %s:%d: v needs id", name, line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 {
				return nil, fmt.Errorf("graph: %s:%d: bad vertex id", name, line)
			}
			b.EnsureVertices(id + 1)
			if len(fields) >= 3 {
				b.SetVertexLabels(VertexID(id), seedInternList(b.Dict(), fields[2])...)
			}
		case "e":
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: %s:%d: e needs src dst", name, line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 0 || v < 0 {
				return nil, fmt.Errorf("graph: %s:%d: bad endpoints", name, line)
			}
			b.EnsureVertices(max(u, v) + 1)
			var labels []Label
			if len(fields) >= 4 {
				labels = seedInternList(b.Dict(), fields[3])
			}
			if _, err := b.AddEdge(VertexID(u), VertexID(v), labels...); err != nil {
				return nil, fmt.Errorf("graph: %s:%d: %w", name, line, err)
			}
		default:
			return nil, fmt.Errorf("graph: %s:%d: unknown record %q", name, line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading %s: %w", name, err)
	}
	return b.Build(), nil
}

func seedApplyKeywords(g *Graph, r io.Reader) (*Graph, error) {
	b := seedRebuilder(g)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("graph: keywords line %d: want kind id kws", line)
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("graph: keywords line %d: bad id", line)
		}
		kws := seedInternList(b.Dict(), fields[2])
		switch fields[0] {
		case "v":
			if id >= b.NumVertices() {
				return nil, fmt.Errorf("graph: keywords line %d: vertex %d out of range", line, id)
			}
			b.SetVertexKeywords(VertexID(id), kws...)
		case "e":
			if id >= b.NumEdges() {
				return nil, fmt.Errorf("graph: keywords line %d: edge %d out of range", line, id)
			}
			b.SetEdgeKeywords(EdgeID(id), kws...)
		default:
			return nil, fmt.Errorf("graph: keywords line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

func seedRebuilder(g *Graph) *seedBuilder {
	b := newSeedBuilder(g.name)
	b.dict = g.dict
	for v := 0; v < g.NumVertices(); v++ {
		id := b.AddVertex(g.VertexLabels(VertexID(v))...)
		if ks := g.VertexKeywords(VertexID(v)); ks != nil {
			b.SetVertexKeywords(id, ks...)
		}
	}
	for id := 0; id < g.NumEdges(); id++ {
		e := g.EdgeByID(EdgeID(id))
		nid, err := b.AddEdge(e.Src, e.Dst, e.Labels...)
		if err != nil {
			panic(err)
		}
		if ks := g.EdgeKeywords(EdgeID(id)); ks != nil {
			b.SetEdgeKeywords(nid, ks...)
		}
	}
	return b
}

func seedInternList(d *Dictionary, csv string) []Label {
	parts := strings.Split(csv, ",")
	out := make([]Label, 0, len(parts))
	for _, p := range parts {
		if p == "" {
			continue
		}
		out = append(out, d.Intern(p))
	}
	return out
}

// The parent commit's writers, one fmt.Fprintf per record.

func seedWriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		if _, err := fmt.Fprintf(bw, "v %d %s\n", v, seedLabelList(g.Dict(), g.VertexLabels(VertexID(v)))); err != nil {
			return err
		}
	}
	for id := 0; id < g.NumEdges(); id++ {
		e := g.EdgeByID(EdgeID(id))
		if len(e.Labels) > 0 {
			if _, err := fmt.Fprintf(bw, "e %d %d %s\n", e.Src, e.Dst, seedLabelList(g.Dict(), e.Labels)); err != nil {
				return err
			}
		} else if _, err := fmt.Fprintf(bw, "e %d %d\n", e.Src, e.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func seedWriteKeywords(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		if ks := g.VertexKeywords(VertexID(v)); len(ks) > 0 {
			if _, err := fmt.Fprintf(bw, "v %d %s\n", v, seedLabelList(g.Dict(), ks)); err != nil {
				return err
			}
		}
	}
	for id := 0; id < g.NumEdges(); id++ {
		if ks := g.EdgeKeywords(EdgeID(id)); len(ks) > 0 {
			if _, err := fmt.Fprintf(bw, "e %d %s\n", id, seedLabelList(g.Dict(), ks)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func seedLabelList(d *Dictionary, ls []Label) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		if n := d.Name(l); n != "" {
			parts[i] = n
		} else {
			parts[i] = strconv.Itoa(int(l))
		}
	}
	return strings.Join(parts, ",")
}

// seedGraph is the seed's pointer-rich Graph storage.
type seedGraph struct {
	name      string
	vlabels   [][]Label
	edges     []Edge
	adjOff    []int32
	adjV      []VertexID
	adjE      []EdgeID
	vkeywords [][]Label
	ekeywords [][]Label
}

// seedBuild is the seed Builder.Build, word for word apart from the receiver
// type.
func seedBuild(b *seedBuilder) *seedGraph {
	n := len(b.vlabels)
	g := &seedGraph{
		name:    b.name,
		vlabels: append([][]Label(nil), b.vlabels...),
		edges:   append([]Edge(nil), b.edges...),
	}
	deg := make([]int32, n+1)
	for _, e := range g.edges {
		deg[e.Src+1]++
		deg[e.Dst+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	g.adjOff = deg
	m := len(g.edges)
	g.adjV = make([]VertexID, 2*m)
	g.adjE = make([]EdgeID, 2*m)
	cursor := make([]int32, n)
	copy(cursor, g.adjOff[:n])
	for id, e := range g.edges {
		i := cursor[e.Src]
		g.adjV[i], g.adjE[i] = e.Dst, EdgeID(id)
		cursor[e.Src]++
		j := cursor[e.Dst]
		g.adjV[j], g.adjE[j] = e.Src, EdgeID(id)
		cursor[e.Dst]++
	}
	for v := 0; v < n; v++ {
		lo, hi := g.adjOff[v], g.adjOff[v+1]
		run := adjRun{v: g.adjV[lo:hi], e: g.adjE[lo:hi]}
		sortAdjRun(run)
	}
	if b.hasKW {
		g.vkeywords = append([][]Label(nil), b.vkeywords...)
		g.ekeywords = append([][]Label(nil), b.ekeywords...)
	}
	return g
}

// sortAdjRun is the seed's sort.Sort call, kept separate so seedBuild stays
// line-comparable with the original.
func sortAdjRun(r adjRun) {
	for i := 1; i < r.Len(); i++ {
		for j := i; j > 0 && r.Less(j, j-1); j-- {
			r.Swap(j, j-1)
		}
	}
}

// Seed accessors.

func (g *seedGraph) numVertices() int                { return len(g.vlabels) }
func (g *seedGraph) numEdges() int                   { return len(g.edges) }
func (g *seedGraph) vertexLabels(v VertexID) []Label { return g.vlabels[v] }
func (g *seedGraph) edgeByID(id EdgeID) Edge         { return g.edges[id] }
func (g *seedGraph) degree(v VertexID) int           { return int(g.adjOff[v+1] - g.adjOff[v]) }
func (g *seedGraph) neighbors(v VertexID) []VertexID {
	return g.adjV[g.adjOff[v]:g.adjOff[v+1]]
}
func (g *seedGraph) incidentEdges(v VertexID) []EdgeID {
	return g.adjE[g.adjOff[v]:g.adjOff[v+1]]
}
func (g *seedGraph) vertexKeywords(v VertexID) []Label {
	if g.vkeywords == nil {
		return nil
	}
	return g.vkeywords[v]
}
func (g *seedGraph) edgeKeywords(id EdgeID) []Label {
	if g.ekeywords == nil {
		return nil
	}
	return g.ekeywords[id]
}

func (g *seedGraph) edgesBetween(u, v VertexID, dst []EdgeID) []EdgeID {
	if u == v {
		return dst
	}
	if g.degree(u) > g.degree(v) {
		u, v = v, u
	}
	nbu := g.neighbors(u)
	ide := g.incidentEdges(u)
	i := 0
	for i < len(nbu) && nbu[i] < v {
		i++
	}
	for ; i < len(nbu) && nbu[i] == v; i++ {
		dst = append(dst, ide[i])
	}
	return dst
}

// Randomized builder recipes. These stay local to the package (the workload
// generators import graph, so using them here would cycle).

// randLabels draws a random label set, sometimes empty, sometimes multi.
func randLabels(r *rand.Rand, universe int) []Label {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1, 2:
		return []Label{Label(r.Intn(universe))}
	default:
		k := 2 + r.Intn(3)
		ls := make([]Label, k)
		for i := range ls {
			ls[i] = Label(r.Intn(universe))
		}
		return ls
	}
}

// erBuilder is an Erdős–Rényi-style recipe with labels and keywords.
func erBuilder(r *rand.Rand) *ops {
	b := &ops{name: "oracle-er"}
	n := 1 + r.Intn(60)
	for i := 0; i < n; i++ {
		b.AddVertex(randLabels(r, 5)...)
	}
	m := r.Intn(3 * n)
	for i := 0; i < m; i++ {
		u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n))
		if u == v {
			continue
		}
		id := b.MustAddEdge(u, v, randLabels(r, 3)...)
		if r.Intn(8) == 0 {
			b.SetEdgeKeywords(id, randLabels(r, 4)...)
		}
	}
	for v := 0; v < n; v++ {
		if r.Intn(8) == 0 {
			b.SetVertexKeywords(VertexID(v), randLabels(r, 4)...)
		}
	}
	return b
}

// baBuilder grows a preferential-attachment graph: each new vertex attaches
// to endpoints sampled from the incidence urn.
func baBuilder(r *rand.Rand) *ops {
	b := &ops{name: "oracle-ba"}
	b.AddVertex(Label(0))
	b.AddVertex(Label(1))
	b.MustAddEdge(0, 1)
	var urn []VertexID
	urn = append(urn, 0, 1)
	n := 2 + r.Intn(50)
	for i := 2; i < n; i++ {
		v := b.AddVertex(Label(i % 4))
		for d := 0; d < 1+r.Intn(3); d++ {
			u := urn[r.Intn(len(urn))]
			if u == v {
				continue
			}
			if _, err := b.AddEdge(u, v); err == nil {
				urn = append(urn, u, v)
			}
		}
	}
	return b
}

// multiBuilder deliberately lays parallel edges with distinct label sets.
func multiBuilder(r *rand.Rand) *ops {
	b := &ops{name: "oracle-multi"}
	n := 2 + r.Intn(20)
	for i := 0; i < n; i++ {
		b.AddVertex(Label(i % 3))
	}
	m := 1 + r.Intn(4*n)
	for i := 0; i < m; i++ {
		u, v := VertexID(r.Intn(n)), VertexID(r.Intn(n))
		if u == v {
			continue
		}
		dup := 1 + r.Intn(3)
		for d := 0; d < dup; d++ {
			b.MustAddEdge(u, v, Label(d))
		}
	}
	return b
}

// recipe is one randomized way of filling a builder.
type recipe struct {
	name  string
	build func(r *rand.Rand) *ops
}

var oracleRecipes = []recipe{
	{"er", erBuilder},
	{"ba", baBuilder},
	{"multi", multiBuilder},
}

// labelsEq treats nil and empty as equal only when both are empty — the CSR
// accessors must preserve the seed's nil-for-empty convention exactly.
func labelsEq(a, b []Label) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return reflect.DeepEqual(a, b)
}

// sliceEq compares element-wise; nil and empty are interchangeable here
// (Neighbors/IncidentEdges promise contents and order, not slice identity).
func sliceEq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pinAgainstSeed compares got's full accessor surface against the seed
// representation.
func pinAgainstSeed(t *testing.T, want *seedGraph, got *Graph) {
	t.Helper()
	if got.NumVertices() != want.numVertices() {
		t.Fatalf("NumVertices=%d, seed says %d", got.NumVertices(), want.numVertices())
	}
	if got.NumEdges() != want.numEdges() {
		t.Fatalf("NumEdges=%d, seed says %d", got.NumEdges(), want.numEdges())
	}
	if got.Name() != want.name {
		t.Errorf("Name=%q, seed says %q", got.Name(), want.name)
	}
	for v := VertexID(0); int(v) < want.numVertices(); v++ {
		if got.Degree(v) != want.degree(v) {
			t.Fatalf("Degree(%d)=%d, seed says %d", v, got.Degree(v), want.degree(v))
		}
		if !sliceEq(got.Neighbors(v), want.neighbors(v)) {
			t.Fatalf("Neighbors(%d)=%v, seed says %v", v, got.Neighbors(v), want.neighbors(v))
		}
		if !sliceEq(got.IncidentEdges(v), want.incidentEdges(v)) {
			t.Fatalf("IncidentEdges(%d)=%v, seed says %v", v, got.IncidentEdges(v), want.incidentEdges(v))
		}
		if !labelsEq(got.VertexLabels(v), want.vertexLabels(v)) {
			t.Fatalf("VertexLabels(%d)=%v, seed says %v", v, got.VertexLabels(v), want.vertexLabels(v))
		}
		wantFirst := Label(-1)
		if ls := want.vertexLabels(v); len(ls) > 0 {
			wantFirst = ls[0]
		}
		if got.VertexLabel(v) != wantFirst {
			t.Fatalf("VertexLabel(%d)=%d, seed says %d", v, got.VertexLabel(v), wantFirst)
		}
		if !labelsEq(got.VertexKeywords(v), want.vertexKeywords(v)) {
			t.Fatalf("VertexKeywords(%d)=%v, seed says %v", v, got.VertexKeywords(v), want.vertexKeywords(v))
		}
	}
	for id := EdgeID(0); int(id) < want.numEdges(); id++ {
		se := want.edgeByID(id)
		ge := got.EdgeByID(id)
		if ge.Src != se.Src || ge.Dst != se.Dst || !labelsEq(ge.Labels, se.Labels) {
			t.Fatalf("EdgeByID(%d)=%+v, seed says %+v", id, ge, se)
		}
		if s, d := got.EdgeEndpoints(id); s != se.Src || d != se.Dst {
			t.Fatalf("EdgeEndpoints(%d)=(%d,%d), seed says (%d,%d)", id, s, d, se.Src, se.Dst)
		}
		wantFirst := Label(-1)
		if len(se.Labels) > 0 {
			wantFirst = se.Labels[0]
		}
		if got.EdgeLabel(id) != wantFirst {
			t.Fatalf("EdgeLabel(%d)=%d, seed says %d", id, got.EdgeLabel(id), wantFirst)
		}
		if !labelsEq(got.EdgeKeywords(id), want.edgeKeywords(id)) {
			t.Fatalf("EdgeKeywords(%d)=%v, seed says %v", id, got.EdgeKeywords(id), want.edgeKeywords(id))
		}
	}
	// Pairwise adjacency probes (every pair: the recipes keep |V| small).
	var wantIDs, gotIDs []EdgeID
	for u := VertexID(0); int(u) < want.numVertices(); u++ {
		for v := VertexID(0); int(v) < want.numVertices(); v++ {
			wantIDs = want.edgesBetween(u, v, wantIDs[:0])
			gotIDs = got.EdgesBetween(u, v, gotIDs[:0])
			if !sliceEq(wantIDs, gotIDs) {
				t.Fatalf("EdgesBetween(%d,%d)=%v, seed says %v", u, v, gotIDs, wantIDs)
			}
			wantOne := NilEdge
			if len(wantIDs) > 0 {
				wantOne = wantIDs[0]
			}
			if e := got.EdgeBetween(u, v); e != wantOne {
				t.Fatalf("EdgeBetween(%d,%d)=%d, seed says %d", u, v, e, wantOne)
			}
			if got.HasEdge(u, v) != (len(wantIDs) > 0) {
				t.Fatalf("HasEdge(%d,%d) disagrees with seed", u, v)
			}
		}
	}
}

// TestCSRDifferentialOracle pins the CSR graph — built in memory, decoded
// from .fgr bytes, and round-tripped through a real file and the mmap loader
// — against the retained seed representation over randomized inputs.
func TestCSRDifferentialOracle(t *testing.T) {
	dir := t.TempDir()
	for _, rec := range oracleRecipes {
		t.Run(rec.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				b := rec.build(rand.New(rand.NewSource(seed)))
				want := seedBuild(b.seed())
				g := b.Build()
				pinAgainstSeed(t, want, g)

				dec, err := DecodeFGR(EncodeFGR(g))
				if err != nil {
					t.Fatalf("seed %d: decode: %v", seed, err)
				}
				pinAgainstSeed(t, want, dec)

				path := filepath.Join(dir, "oracle.fgr")
				if err := SaveFGR(path, g); err != nil {
					t.Fatalf("seed %d: save: %v", seed, err)
				}
				mapped, err := LoadFGR(path)
				if err != nil {
					t.Fatalf("seed %d: load: %v", seed, err)
				}
				if !mapped.Mapped() {
					t.Fatal("LoadFGR graph does not report Mapped")
				}
				pinAgainstSeed(t, want, mapped)
				if mapped.NumLabels() != g.NumLabels() {
					t.Errorf("seed %d: mapped NumLabels=%d, want %d", seed, mapped.NumLabels(), g.NumLabels())
				}
				if mapped.Stats() != g.Stats() {
					t.Errorf("seed %d: mapped Stats=%+v, want %+v", seed, mapped.Stats(), g.Stats())
				}
				if err := mapped.Close(); err != nil {
					t.Fatalf("seed %d: close: %v", seed, err)
				}
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCSRDictionaryRoundTrip pins that interned label names survive the
// write→mmap round trip in Label order.
func TestCSRDictionaryRoundTrip(t *testing.T) {
	b := NewBuilder("dict-rt")
	d := b.Dict()
	la, lb, lc := d.Intern("alpha"), d.Intern("beta"), d.Intern("gamma/δ")
	v0 := b.AddVertex(la)
	v1 := b.AddVertex(lb)
	b.MustAddEdge(v0, v1, lc)
	g := b.Build()

	path := filepath.Join(t.TempDir(), "dict.fgr")
	if err := SaveFGR(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFGR(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Dict().Len() != d.Len() {
		t.Fatalf("dict Len=%d, want %d", got.Dict().Len(), d.Len())
	}
	for l := 0; l < d.Len(); l++ {
		if got.Dict().Name(Label(l)) != d.Name(Label(l)) {
			t.Errorf("dict[%d]=%q, want %q", l, got.Dict().Name(Label(l)), d.Name(Label(l)))
		}
	}
	if l, ok := got.Dict().Lookup("gamma/δ"); !ok || l != lc {
		t.Errorf("Lookup(gamma/δ)=(%d,%v), want (%d,true)", l, ok, lc)
	}
}
