package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fractal/internal/graph"
	"fractal/internal/workload"
)

// sizes freezes the generator parameters. They were chosen on the 2-core
// reference host so that one motifs5_sl or FSM job takes 2-3 s and one
// small_jobs_el op 0.3-1.3 s: the issue's 5-8 s jobs on a 45x50, degree-16
// community graph and BA(9000) do not fit the driver's budget of about 35 s
// per run, so the community graph kept its vertices and lost density, and
// the FSM graph and its support threshold were halved together.
type sizes struct {
	communities, perCommunity int
	degIn                     float64
	fsmVertices               int
	fsmSupport                int
	smallVertices             int
}

var (
	fullSizes = sizes{communities: 45, perCommunity: 50, degIn: 9, fsmVertices: 4500, fsmSupport: 50, smallVertices: 120000}
	// quickSizes make every job sub-second; -quick results are marked and
	// never compared.
	quickSizes = sizes{communities: 12, perCommunity: 50, degIn: 9, fsmVertices: 1200, fsmSupport: 20, smallVertices: 20000}
)

// structureSeed draws the structure of every input. The run's -seed only
// renumbers it (see renumber): a preferential-attachment graph's hubs, and
// with them the work of a job, differ by a factor of two between generator
// seeds, which no bound on run-to-run spread survives.
const structureSeed = 1

// graphSpec is one generated input file.
type graphSpec struct {
	name string // file stem under out/data
	fgr  bool   // converted with `fractal -convert`; jobs read the .fgr
	gen  func(sz sizes) *graph.Graph
}

// renumber returns a graph isomorphic to g: the seed draws a new numbering
// of the vertices and a new order of the edges. Vertices only trade places
// within their label class, so the label at every vertex id stays and the
// text loader interns labels in the same order. Every seed therefore gives
// the program the same amount of work in a different layout, and every seed
// must give the same counts: the reference digests hold for all of them.
func renumber(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	classes := map[graph.Label][]graph.VertexID{}
	var labels []graph.Label
	for v := graph.VertexID(0); int(v) < n; v++ {
		l := g.VertexLabel(v)
		if classes[l] == nil {
			labels = append(labels, l)
		}
		classes[l] = append(classes[l], v)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	to := make([]graph.VertexID, n)
	for _, l := range labels {
		ids := classes[l]
		for i, j := range rng.Perm(len(ids)) {
			to[ids[i]] = ids[j]
		}
	}
	b := graph.NewBuilder(g.Name())
	for v := graph.VertexID(0); int(v) < n; v++ {
		b.AddVertex(g.VertexLabel(v))
	}
	for _, id := range rng.Perm(g.NumEdges()) {
		e := g.EdgeByID(graph.EdgeID(id))
		b.MustAddEdge(to[e.Src], to[e.Dst], e.Labels...)
	}
	return b.Build()
}

func (g graphSpec) path(dataDir string) string {
	if g.fgr {
		return filepath.Join(dataDir, g.name+".fgr")
	}
	return filepath.Join(dataDir, g.name+".el")
}

var (
	// Single label: motifs -engine auto only decomposes on uniform labels.
	communityGraph = graphSpec{name: "community_sl", fgr: true, gen: func(sz sizes) *graph.Graph {
		return workload.Community("community_sl", sz.communities, sz.perCommunity, sz.degIn, 1.2, 1, structureSeed)
	}}
	// 37 Zipf-skewed labels on a preferential-attachment graph, the
	// patents-ml analog of internal/workload.
	fsmGraph = graphSpec{name: "ba_ml", fgr: true, gen: func(sz sizes) *graph.Graph {
		return workload.SkewLabels(workload.BarabasiAlbert("ba_ml", sz.fsmVertices, 2, 37, structureSeed), 37, structureSeed+1)
	}}
	// Sparse and large, read as text: load dominates every op on it.
	smallGraph = graphSpec{name: "ba_sparse", gen: func(sz sizes) *graph.Graph {
		return workload.BarabasiAlbert("ba_sparse", sz.smallVertices, 3, 1, structureSeed)
	}}
)

// opKind is one kind of job: the CLI arguments after -graph.
type opKind struct {
	name string
	args []string
}

// workloadDef is one benchmark workload. BENCHMARK.json repeats name and
// why.
type workloadDef struct {
	name     string
	why      string
	graph    graphSpec
	ops      []opKind // one round runs each once
	dist     bool     // master + 2 worker processes instead of -workers 1 -cores 2
	minOps   int      // timed ops below which a run is not reported
	workUnit string
	work     func(stdout string) int64 // work units of one job, from its output
	// oracle, if set, is an independent job whose digest must equal the
	// reference job's.
	oracle *opKind
	// traceRounds is how many untraced rounds a -trace 1 run makes for the
	// overhead ratio and cli.op_wall_hi_s.
	traceRounds int
}

func workloads(sz sizes) []workloadDef {
	fsm := opKind{"fsm", []string{"-app", "fsm", "-support", strconv.Itoa(sz.fsmSupport), "-maxedges", "3"}}
	patterns := func(out string) int64 { return firstInt(frequentRE, out) }
	return []workloadDef{
		{
			name:  "motifs5_sl",
			why:   "5-vertex motifs, auto engine, single-label community graph (.fgr): plan enumeration, intersection kernels, decomposition sweep, internal stealing; agg, rpc and graph parsing do almost nothing",
			graph: communityGraph,
			ops:   []opKind{{"motifs5", []string{"-app", "motifs", "-k", "5", "-engine", "auto"}}},
			// The plan engine enumerates what auto partly computes
			// algebraically: same counts by another route.
			oracle:   &opKind{"motifs5_plan", []string{"-app", "motifs", "-k", "5", "-engine", "plan"}},
			minOps:   5,
			workUnit: "subgraphs",
			work:     func(out string) int64 { return firstInt(subgraphsRE, out) },

			traceRounds: 3,
		},
		{
			name:        "fsm_ml",
			why:         "3-edge FSM on a 37-label skewed BA graph (.fgr): edge-induced enumeration, DomainSupport inserts, canonical labelling, MergeTree; intersection kernels bypassed; counter-workload to motifs5_sl",
			graph:       fsmGraph,
			ops:         []opKind{fsm},
			minOps:      5,
			workUnit:    "patterns",
			work:        patterns,
			traceRounds: 3,
		},
		{
			name:  "fsm_ml_dist",
			why:   "fsm_ml's file and flags on a master plus two 1-core worker processes per job: the difference to fsm_ml is the distribution cost (registration, TCP, agg wire codec, quiescence polling, teardown)",
			graph: fsmGraph,
			ops:   []opKind{fsm},
			dist:  true,
			// The in-process run of the same job: transports must agree.
			oracle:      &fsm,
			minOps:      5,
			workUnit:    "patterns",
			work:        patterns,
			traceRounds: 3,
		},
		{
			name:  "small_jobs_el",
			why:   "six kinds of sub-second job on a sparse 120k-vertex BA graph read from text .el: parse, CSR build, plan compile, runtime start, polling floor and teardown dominate; enumeration is tiny",
			graph: smallGraph,
			ops: []opKind{
				{"triangles", []string{"-app", "triangles"}},
				{"cliques4", []string{"-app", "cliques", "-k", "4"}},
				{"square", []string{"-app", "query", "-pattern", "square"}},
				{"path4", []string{"-app", "query", "-pattern", "path4"}},
				{"star4", []string{"-app", "query", "-pattern", "star4"}},
				{"motifs3", []string{"-app", "motifs", "-k", "3"}},
			},
			minOps:      30,
			workUnit:    "jobs",
			work:        func(string) int64 { return 1 },
			traceRounds: 4, // 24 ops, enough for a percentile with ten beyond it
		},
	}
}

// writeGraph generates one input from the seed into dataDir: the text edge
// list always, and the .fgr through the CLI's own converter, so that a later
// change which moves work into conversion shows in setup_s. It returns the
// SHA-256 of the file the jobs will read.
func (h *harness) writeGraph(parent int, spec graphSpec) (string, error) {
	var g *graph.Graph
	h.tr.in(parent, "generate:"+spec.name, func(int) { g = renumber(spec.gen(h.sz), h.seed) })
	el := filepath.Join(h.dataDir, spec.name+".el")
	var err error
	h.tr.in(parent, "write_el:"+spec.name, func(int) { err = writeEdgeList(el, g) })
	if err != nil {
		return "", err
	}
	if spec.fgr {
		res := h.cli(parent, "-graph", el, "-convert", spec.path(h.dataDir))
		if res.failure != "" {
			return "", fmt.Errorf("convert %s: %s: %s", el, res.failure, res.stderr)
		}
		if s := g.Stats(); !strings.Contains(res.stdout, fmt.Sprintf("|V|=%d |E|=%d ", s.V, s.E)) {
			return "", fmt.Errorf("convert %s: want |V|=%d |E|=%d, CLI said %q", el, s.V, s.E, res.stdout)
		}
	}
	return fileSHA256(spec.path(h.dataDir))
}

func writeEdgeList(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := graph.WriteEdgeList(bw, g); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
