package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fractal/internal/agg"
	"fractal/internal/enumerator"
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/rpc"
	"fractal/internal/subgraph"
)

// The layer probes time calls into each module's exported functions on the
// benchmark's own generated inputs, from outside the program. Every probe
// runs inside a span. Counts that depend only on the input (elements
// intersected, extension tests, wire bytes) are exact and must repeat for
// one seed; times are medians of a few repetitions where one repetition is
// short.

type word = subgraph.Word

// probeScale divides probe sizes under -quick.
func (h *harness) probeScale() int {
	if h.quick {
		return 10
	}
	return 1
}

// medianOf runs f n times and returns the median of what it returns.
func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }

// runProbes measures every probe-backed per-layer metric once per process.
func (h *harness) runProbes(parent int) (metrics, error) {
	m := metrics{}
	root := h.tr.begin(parent, "probes")
	defer h.tr.end(root)
	for _, spec := range []graphSpec{communityGraph, fsmGraph, smallGraph} {
		if err := h.ensureGraph(root, spec); err != nil {
			return nil, err
		}
	}
	comm, err := graph.LoadFile(communityGraph.path(h.dataDir))
	if err != nil {
		return nil, fmt.Errorf("probe inputs: %w", err)
	}
	defer comm.Close()
	fsm, err := graph.LoadFile(fsmGraph.path(h.dataDir))
	if err != nil {
		return nil, fmt.Errorf("probe inputs: %w", err)
	}
	defer fsm.Close()

	probes := []struct {
		name string
		run  func() error
	}{
		{"graph.load", func() error { return h.probeGraphLoad(m) }},
		{"graph.intersect", func() error { h.probeIntersect(m, comm); return nil }},
		{"pattern.plan_compile", func() error { return probePlanCompile(m) }},
		{"subgraph.ext", func() error { return h.probePlanExtensions(m, comm) }},
		{"subgraph.localcount", func() error { return probeLocalCounts(h.ctx, m, comm) }},
		{"subgraph.edge_ext+pattern.canon+agg", func() error { return h.probeFSMLayers(m, fsm) }},
		{"enumerator", func() error { h.probeEnumerator(m); return nil }},
		{"rpc", func() error { return h.probeRPC(m) }},
	}
	for _, p := range probes {
		var err error
		h.tr.in(root, "probe:"+p.name, func(int) { err = p.run() })
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return m, nil
}

// probeGraphLoad parses the small_jobs_el text graph and maps its binary
// twin: the same graph both ways, so the two times compare directly.
func (h *harness) probeGraphLoad(m metrics) error {
	el := smallGraph.path(h.dataDir)
	var g *graph.Graph
	var err error
	m.set("graph.load_el_s", medianOf(3, func() float64 {
		t := time.Now()
		g, err = graph.LoadFile(el)
		return secondsSince(t)
	}))
	if err != nil {
		return err
	}
	fgr := filepath.Join(h.dataDir, smallGraph.name+".probe.fgr")
	if err := graph.SaveFGR(fgr, g); err != nil {
		return err
	}
	st, err := os.Stat(fgr)
	if err != nil {
		return err
	}
	m.set("graph.fgr_bytes", float64(st.Size()))
	m.set("graph.load_fgr_s", medianOf(5, func() float64 {
		t := time.Now()
		var mg *graph.Graph
		mg, err = graph.LoadFGR(fgr)
		d := secondsSince(t)
		if err == nil {
			err = mg.Close()
		}
		return d
	}))
	return err
}

var sink int // keeps probe results live so the compiler cannot drop the calls

// probeIntersect runs one IntersectSorted per edge over both endpoint
// adjacencies of the motifs graph.
func (h *harness) probeIntersect(m metrics, g *graph.Graph) {
	var elems int64
	for id := 0; id < g.NumEdges(); id++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(id))
		elems += int64(g.Degree(u) + g.Degree(v))
	}
	reps := 200 / h.probeScale()
	var dst []graph.VertexID
	t := time.Now()
	for r := 0; r < reps; r++ {
		for id := 0; id < g.NumEdges(); id++ {
			u, v := g.EdgeEndpoints(graph.EdgeID(id))
			dst = graph.IntersectSorted(g.Neighbors(u), g.Neighbors(v), dst[:0])
			sink += len(dst)
		}
	}
	m.set("graph.intersect_ns_per_elem", float64(time.Since(t).Nanoseconds())/float64(elems*int64(reps)))
	m.set("graph.intersect_elems", float64(elems))
}

// k5Plans compiles what `motifs -k 5` compiles before it touches the graph.
func k5Plans() ([]*pattern.Plan, error) {
	pats, err := pattern.ConnectedPatterns(5)
	if err != nil {
		return nil, err
	}
	plans := make([]*pattern.Plan, len(pats))
	for i, p := range pats {
		if plans[i], err = pattern.NewInducedPlan(p); err != nil {
			return nil, err
		}
		if _, err = pattern.Choose(p); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

func probePlanCompile(m metrics) error {
	var err error
	m.set("pattern.plan_compile_s", medianOf(5, func() float64 {
		t := time.Now()
		_, err = k5Plans()
		return secondsSince(t)
	}))
	return err
}

// dfs walks the extension tree below each root single-threaded, the way one
// core does: Extensions, then Push / recurse / Pop per extension. maxDepth
// bounds edge- and vertex-induced walks; pattern walks end at Complete.
// visit, if not nil, sees every embedding after its Push.
type dfs struct {
	e        *subgraph.Embedding
	maxDepth int
	bufs     [][]word
	visit    func(e *subgraph.Embedding)
	tests    int64 // candidate tests, as Extensions counts them
	exts     int64 // extensions that passed
}

func (d *dfs) walk(roots []word) {
	for _, r := range roots {
		if !d.e.ValidInitial(r) {
			continue
		}
		d.push(r, 1)
	}
}

func (d *dfs) push(w word, depth int) {
	d.e.Push(w)
	if d.visit != nil {
		d.visit(d.e)
	}
	if !d.e.Complete() && depth < d.maxDepth {
		for len(d.bufs) <= depth {
			d.bufs = append(d.bufs, nil)
		}
		exts, tested := d.e.Extensions(d.bufs[depth][:0])
		d.bufs[depth] = exts
		d.tests += int64(tested)
		d.exts += int64(len(exts))
		for _, x := range exts {
			d.push(x, depth+1)
		}
	}
	d.e.Pop()
}

// everyNth is the fixed root sample: words 0, n, 2n, ... below domain.
func everyNth(domain, n int) []word {
	var roots []word
	for w := 0; w < domain; w += n {
		roots = append(roots, word(w))
	}
	return roots
}

// probePlanExtensions walks all 21 induced 5-vertex plans from a quarter
// of the motifs graph's vertices.
func (h *harness) probePlanExtensions(m metrics, g *graph.Graph) error {
	plans, err := k5Plans()
	if err != nil {
		return err
	}
	roots := everyNth(g.NumVertices(), 4*h.probeScale())
	var tests, exts int64
	t := time.Now()
	for _, pl := range plans {
		d := dfs{e: subgraph.New(g, subgraph.PatternInduced, pl), maxDepth: len(pl.Order)}
		d.walk(roots)
		tests += d.tests
		exts += d.exts
	}
	ns := float64(time.Since(t).Nanoseconds())
	if tests == 0 {
		return fmt.Errorf("no extension was tested on %s", g.Name())
	}
	m.set("subgraph.ext_ns_per_test", ns/float64(tests))
	m.set("subgraph.ext_tests", float64(tests))
	m.set("subgraph.ext_useful_ratio", float64(exts)/float64(tests))
	return nil
}

// probeLocalCounts runs the shared decomposition sweep with the terms of
// every decomposable 5-vertex pattern, as motifs -engine auto does.
func probeLocalCounts(ctx context.Context, m metrics, g *graph.Graph) error {
	pats, err := pattern.ConnectedPatterns(5)
	if err != nil {
		return err
	}
	var terms subgraph.LocalTerms
	for _, p := range pats {
		dp, err := pattern.Decompose(p)
		if err != nil {
			continue // no rule for this pattern: it is enumerated instead
		}
		terms.NeedTri = terms.NeedTri || dp.NeedTri
		for _, t := range dp.Terms {
			if t.Pair() {
				terms.Pair = append(terms.Pair, t.EvalPair)
			} else {
				terms.Vertex = append(terms.Vertex, t.EvalVertex)
			}
		}
	}
	var ops int64
	m.set("subgraph.localcount_s", medianOf(5, func() float64 {
		t := time.Now()
		_, _, ops, err = subgraph.LocalCounts(ctx, g, terms, 2)
		return secondsSince(t)
	}))
	m.set("subgraph.localcount_ops", float64(ops))
	return err
}

// fsmItem is one embedding as FSM's aggregation sees it.
type fsmItem struct {
	pat   *pattern.Pattern
	verts []graph.VertexID
	code  string
	rep   *pattern.Pattern
	perm  []int
}

// probeFSMLayers walks 1-3-edge edge-induced embeddings of the FSM graph
// from a fixed sample of root edges, then replays the stream of embeddings
// through the canonical-labelling cache and the aggregation pipeline.
func (h *harness) probeFSMLayers(m metrics, g *graph.Graph) error {
	roots := everyNth(g.NumEdges(), 16*h.probeScale())
	d := dfs{e: subgraph.New(g, subgraph.EdgeInduced, nil), maxDepth: 3}
	t := time.Now()
	d.walk(roots)
	ns := float64(time.Since(t).Nanoseconds())
	if d.tests == 0 {
		return fmt.Errorf("no extension was tested on %s", g.Name())
	}
	m.set("subgraph.edge_ext_ns_per_test", ns/float64(d.tests))

	// The same walk again, untimed, keeping the first embeddings it meets.
	limit := 200000 / h.probeScale()
	var items []fsmItem
	d = dfs{e: subgraph.New(g, subgraph.EdgeInduced, nil), maxDepth: 3, visit: func(e *subgraph.Embedding) {
		if len(items) < limit {
			items = append(items, fsmItem{pat: e.Pattern(), verts: append([]graph.VertexID(nil), e.Vertices()...)})
		}
	}}
	d.walk(roots)
	if len(items) == 0 {
		return fmt.Errorf("no embedding on %s", g.Name())
	}

	cache := pattern.NewCodeCache(0)
	t = time.Now()
	for i := range items {
		sink += len(cache.Canonical(items[i].pat).Code)
	}
	m.set("pattern.canon_ns_per_op", float64(time.Since(t).Nanoseconds())/float64(len(items)))
	hits, misses := cache.Stats()
	m.set("pattern.canon_cache_hit_ratio", float64(hits)/float64(hits+misses))

	for i := range items {
		it := &items[i]
		canon, rep := cache.CanonicalRep(it.pat)
		it.code, it.rep, it.perm = canon.Code, rep, canon.Perm
	}
	// Two stores stand for the two cores of a job; items alternate.
	var insert, merge, encode, decode []float64
	var wire int
	for r := 0; r < 3; r++ {
		stores := []agg.Store{newSupportStore(), newSupportStore()}
		t = time.Now()
		for i := range items {
			it := &items[i]
			st := stores[i&1].(*agg.Aggregation[string, *agg.DomainSupport])
			st.Add(it.code, agg.ScratchDomainSupport(it.rep, int64(h.sz.fsmSupport), it.verts, it.perm))
		}
		insert = append(insert, float64(time.Since(t).Nanoseconds())/float64(len(items)))
		t = time.Now()
		merged, err := agg.MergeTree(stores, nil)
		merge = append(merge, secondsSince(t))
		if err != nil {
			return err
		}
		t = time.Now()
		data, err := merged.Encode()
		encode = append(encode, secondsSince(t))
		if err != nil {
			return err
		}
		wire = len(data)
		fresh := merged.NewEmpty()
		t = time.Now()
		err = fresh.DecodeAndMerge(data)
		decode = append(decode, secondsSince(t))
		if err != nil {
			return err
		}
		if fresh.Len() != merged.Len() {
			return fmt.Errorf("aggregation codec round trip: %d keys in, %d out", merged.Len(), fresh.Len())
		}
	}
	m.set("agg.insert_ns_per_op", median(insert))
	m.set("agg.merge_tree_s", median(merge))
	m.set("agg.encode_s", median(encode))
	m.set("agg.decode_s", median(decode))
	m.set("agg.wire_bytes", float64(wire))
	return nil
}

func newSupportStore() agg.Store {
	return agg.New[string, *agg.DomainSupport](agg.ReduceDomainSupport)
}

// probeEnumerator times the per-level stack cycle of the DFS loop (copy a
// level in, drain it, pop it) and a steal from a stack three levels deep.
func (h *harness) probeEnumerator(m metrics) {
	prefix := []word{1, 2, 3}
	exts := make([]word, 16)
	for i := range exts {
		exts[i] = word(10 + i)
	}
	var st enumerator.Stack
	iters := 200000 / h.probeScale()
	t := time.Now()
	for i := 0; i < iters; i++ {
		e := st.PushCopy(prefix, exts)
		for {
			w, ok := e.Take()
			if !ok {
				break
			}
			sink += int(w)
		}
		st.Pop()
	}
	m.set("enumerator.cycle_ns", float64(time.Since(t).Nanoseconds())/float64(iters))

	// Refill whenever the victim runs dry, outside the timed steals.
	var steal time.Duration
	stolen := 0
	for stolen < iters {
		for depth := 1; depth <= 3; depth++ {
			st.PushCopy(prefix[:depth], exts)
		}
		t = time.Now()
		for {
			w, ok := st.StealShallowest()
			if !ok {
				break
			}
			sink += len(w)
			stolen++
		}
		steal += time.Since(t)
		st.Clear()
	}
	m.set("enumerator.steal_ns", float64(steal.Nanoseconds())/float64(stolen))
}

// probeRPC bounces a small message between two nodes of each transport and
// streams 64 KiB frames over TCP.
func (h *harness) probeRPC(m metrics) error {
	pings := 2000 / h.probeScale()
	ids := []rpc.NodeID{0, 1}
	loop := rpc.NewLoopbackNetwork(ids)
	rtt, _, err := pingPong(loop[0], loop[1], pings, 0)
	if err != nil {
		return err
	}
	m.set("rpc.loopback_rtt_us", rtt)
	tcp, err := rpc.NewTCPNetwork(ids)
	if err != nil {
		return err
	}
	frames := 512 / h.probeScale()
	rtt, mbps, err := pingPong(tcp[0], tcp[1], pings, frames)
	if err != nil {
		return err
	}
	m.set("rpc.tcp_rtt_us", rtt)
	m.set("rpc.tcp_mb_per_s", mbps)
	return nil
}

const (
	kindPing  = 1
	kindFrame = 2
	frameSize = 64 << 10
)

// pingPong measures the median round trip of pings small messages from a
// to b and back, then, when frames > 0, the rate at which b receives that
// many frameSize messages. It closes both transports.
func pingPong(a, b rpc.Transport, pings, frames int) (rttUS, mbPerS float64, err error) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // b: echo pings, acknowledge the last frame
		defer wg.Done()
		got := 0
		for env := range b.Recv() {
			if env.Kind == kindFrame {
				if got++; got < frames {
					continue
				}
			}
			if b.Send(a.Self(), rpc.Envelope{Kind: kindPing}) != nil {
				return // a is gone; the caller reports why
			}
		}
	}()
	defer func() {
		a.Close()
		b.Close()
		wg.Wait()
	}()
	await := func() error {
		select {
		case _, ok := <-a.Recv():
			if !ok {
				return fmt.Errorf("transport closed")
			}
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("no reply from node %d within 10 s", b.Self())
		}
	}
	body := make([]byte, 16)
	rtts := make([]float64, pings)
	for i := range rtts {
		t := time.Now()
		if err := a.Send(b.Self(), rpc.Envelope{Kind: kindPing, Body: body}); err != nil {
			return 0, 0, err
		}
		if err := await(); err != nil {
			return 0, 0, err
		}
		rtts[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	if frames > 0 {
		frame := make([]byte, frameSize)
		t := time.Now()
		for i := 0; i < frames; i++ {
			if err := a.Send(b.Self(), rpc.Envelope{Kind: kindFrame, Body: frame}); err != nil {
				return 0, 0, err
			}
		}
		if err := await(); err != nil {
			return 0, 0, err
		}
		mbPerS = float64(frames) * frameSize / 1e6 / secondsSince(t)
	}
	return median(rtts), mbPerS, nil
}
