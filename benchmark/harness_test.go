package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"fractal/internal/graph"
	fmetrics "fractal/internal/metrics"
	"fractal/internal/rpc"
	"fractal/internal/sched"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	// Expected values are statistics.quantiles(xs, n=4) of Python 3.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestFasterHalf(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{4, 2}, 2},
		{[]float64{9, 1, 5}, 3},         // 1 and the middle sample
		{[]float64{8, 2, 9, 4}, 3},      // 2 and 4
		{[]float64{2, 2, 2, 50, 90}, 2}, // slowed jobs in the slower half do not count
	} {
		if got := fasterHalf(c.xs); got != c.want {
			t.Errorf("fasterHalf(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A time is the faster half's mean per kind, averaged over the kinds; a
// failed job gives no sample and the rate is work over that wall.
func TestEndToEndMetricsPerKind(t *testing.T) {
	w := workloadDef{ops: []opKind{{name: "a"}, {name: "b"}}}
	rec := func(kind string, wall, cpu, rss float64, failure string) jobRecord {
		return jobRecord{Kind: kind, WallS: wall, CPUS: cpu, RSSMB: rss, Failure: failure}
	}
	timed := []jobRecord{
		rec("a", 1, 2, 10, ""), rec("b", 10, 20, 30, ""),
		rec("a", 3, 6, 11, ""), rec("b", 30, 60, 99, "exit 1"),
		rec("a", 9, 9, 12, ""), rec("b", 20, 40, 31, ""),
	}
	m := endToEndMetrics(w, 110, []float64{3, 1, 2}, timed)
	for name, want := range map[string]float64{
		"setup_s":     2,
		"job_wall_s":  (2 + 10) / 2.0, // a: mean(1,3); b: the faster of 10 and 20
		"cpu_s":       (4 + 20) / 2.0,
		"work_per_s":  110 / 6.0,
		"peak_rss_mb": 31, // the failed job's 99 does not count
	} {
		if got := val(m, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if n := m["job_wall_s"].N; n != 2 {
		t.Errorf("job_wall_s has %d round samples, want 2: the round with the failed job gives none", n)
	}
}

func TestHiPercentileKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7)%n + 1) // 1..n in a scrambled order when gcd(7,n)=1
		}
		return xs
	}
	if _, _, ok := hiPercentile(seq(20)); ok {
		t.Error("with 20 samples the one with ten beyond it lies under the median")
	}
	for _, c := range []struct{ n, pct int }{{22, 54}, {30, 66}, {48, 79}} {
		v, pct, ok := hiPercentile(seq(c.n))
		if !ok || v != float64(c.n-10) || pct != c.pct {
			t.Errorf("n=%d: got value %v p%d ok=%v, want value %d p%d", c.n, v, pct, ok, c.n-10, c.pct)
		}
	}
}

func sample(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// The samples are captured cmd/fractal output, one per job kind.
func TestNormalizeDropsWhatVariesAndKeepsResults(t *testing.T) {
	counts := map[string]string{
		"triangles": "661", "cliques4": "18", "square": "7622", "path4": "19241067", "star4": "67570457",
		"motifs3": "1200304", "fsm": "s=181",
	}
	for kind, count := range counts {
		out := sample(t, kind)
		norm := normalize(out)
		for _, bad := range []string{"EC=", "loaded", "engine", "ms", "µs", "(", ",,"} {
			if bad == "(" && strings.Contains(out, "Pattern(") {
				continue // pattern lines keep their parentheses
			}
			if strings.Contains(norm, bad) {
				t.Errorf("%s: normalised output still contains %q:\n%s", kind, bad, norm)
			}
		}
		if !strings.Contains(norm, count) {
			t.Errorf("%s: normalised output lost the result %s:\n%s", kind, count, norm)
		}

		// Timings, extension counts and the engine tag may change freely.
		varied := regexp.MustCompile(`EC=\d+`).ReplaceAllString(out, "EC=1")
		varied = regexp.MustCompile(`\d+\.\d+(ms|µs)`).ReplaceAllString(varied, "1m2.5s")
		varied = strings.NewReplacer("decomp engine", "plan engine", "auto engine", "canon engine").Replace(varied)
		if varied == out && kind != "fsm" { // fsm prints neither timings nor EC
			t.Fatalf("%s: the sample has nothing to vary", kind)
		}
		if digest(varied) != digest(out) {
			t.Errorf("%s: digest depends on timings, EC or engine:\n%s\nvs\n%s", kind, normalize(varied), norm)
		}
		// The result may not.
		if wrong := strings.Replace(out, count, "999", 1); digest(wrong) == digest(out) {
			t.Errorf("%s: digest ignores the result", kind)
		}
	}
}

func TestDigestIgnoresLineOrderAndTransport(t *testing.T) {
	out := sample(t, "fsm")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// What a -listen master prints for the same result: no "loaded" line,
	// its own chatter, patterns in another map order.
	dist := []string{"master listening on 127.0.0.1:40123", "waiting for 2 worker(s)...", lines[1]}
	for i := len(lines) - 1; i >= 2; i-- {
		dist = append(dist, lines[i])
	}
	dist = append(dist, "metrics snapshot written to /x/report.json")
	if digest(strings.Join(dist, "\n")) != digest(out) {
		t.Errorf("in-process and master output of one result differ:\n%s\nvs\n%s", normalize(strings.Join(dist, "\n")), normalize(out))
	}
}

func TestWorkUnitsFromOutput(t *testing.T) {
	if got := firstInt(subgraphsRE, sample(t, "motifs3")); got != 1200965 {
		t.Errorf("subgraphs = %d, want 1200965", got)
	}
	if got := firstInt(frequentRE, sample(t, "fsm")); got != 13 {
		t.Errorf("frequent patterns = %d, want 13", got)
	}
	if got := firstInt(subgraphsRE, sample(t, "triangles")); got != 0 {
		t.Errorf("triangles output has no subgraph count, got %d", got)
	}
}

func testReport() *sched.RunReport {
	return &sched.RunReport{
		Workers: 1, CoresPerWorker: 2, Wall: 3 * time.Second,
		Steps: []sched.StepReport{
			{
				Wall: time.Second, EC: 100, Subgraphs: 10, StealsInternal: 3, PeakStateBytes: 64, AggMergeTime: time.Millisecond,
				AggShippedBytes: 7, RoundsTotal: 2,
				Metrics: fmetrics.Snapshot{BusyTimeNs: 1.5e9, IdleTimeNs: 0.25e9, StealTimeNs: 0.25e9},
				Rounds:  []sched.QuiescenceRound{{Wait: 10 * time.Millisecond}, {Wait: 30 * time.Millisecond}},
			},
			{Wall: time.Second, EC: 50, Subgraphs: 5, PeakStateBytes: 32, RoundsTotal: 1, Metrics: fmetrics.Snapshot{BusyTimeNs: 1.5e9}},
		},
		Transport: sched.TransportStats{Master: rpc.Stats{MsgsSent: 4, BytesSent: 40}, Workers: []rpc.Stats{{MsgsSent: 6, BytesSent: 60}}},
	}
}

func TestReportStatsExtraction(t *testing.T) {
	// Through the file format the CLI writes with -metrics-out.
	path := filepath.Join(t.TempDir(), "report.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := testReport().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	var s reportStats
	s.add(rep, false)
	m := metrics{}
	s.into(m)
	want := map[string]float64{
		"sched.ec": 150, "sched.subgraphs": 15, "sched.steals_internal": 3, "sched.steals_external": 0,
		"sched.agg_shipped_bytes": 7, "sched.transport_msgs": 10, "sched.transport_bytes": 100,
		"sched.quiescence_rounds": 3, "sched.peak_state_bytes": 64, "sched.step_wall_s": 2, "sched.busy_s": 3,
		"sched.idle_s": 0.25, "sched.steal_s": 0.25, "sched.agg_merge_s": 0.001, "sched.quiescence_wait_s": 0.04,
		"sched.utilization": 0.75,
	}
	for name, w := range want {
		if got := m[name].Value; got == nil || *got != w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if s.runWall-s.stepWall != time.Second {
		t.Errorf("run gap = %v, want 1s", s.runWall-s.stepWall)
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "sched.") {
			if _, ok := m[d.Name]; !ok {
				t.Errorf("%s is defined but not extracted", d.Name)
			}
		}
	}
}

func TestMasterReportGivesNullNotZero(t *testing.T) {
	var s reportStats
	s.add(testReport(), true)
	m := metrics{}
	s.into(m)
	for _, name := range masterBlind {
		if m[name].Value != nil {
			t.Errorf("%s = %v under a master, want null", name, *m[name].Value)
		}
	}
	if v := m["sched.quiescence_rounds"].Value; v == nil || *v != 3 {
		t.Errorf("the master's own counts must stay: quiescence_rounds = %v", v)
	}
	data, err := json.Marshal(m["sched.ec"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"value":null`)) {
		t.Errorf("sched.ec is written as %s, want a JSON null", data)
	}
}

func TestVerdictAppliesBounds(t *testing.T) {
	lower := metricDef{Name: "job_wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d              metricDef
		a, b, spA, spB float64
		want           string
	}{
		{lower, 1, 1.05, 0.02, 0.02, "ok"},
		{lower, 1, 0.5, 0.02, 0.02, "ok"}, // better is never a regression
		{lower, 1, 1.11, 0.02, 0.02, "regressed"},
		{lower, 1, 1.05, 0.02, 0.12, "unresolved"},
		{lower, 1, 1.05, 0.12, 0.02, "unresolved"},
		{higher, 100, 95, 0.01, 0.01, "ok"},
		{higher, 100, 89, 0.01, 0.01, "regressed"},
		{higher, 100, 150, 0.01, 0.01, "ok"},
	} {
		if got := verdict(c.d, c.a, c.b, c.spA, c.spB); got != c.want {
			t.Errorf("%s a=%v b=%v spreads %v %v: %s, want %s", c.d.Name, c.a, c.b, c.spA, c.spB, got, c.want)
		}
	}
}

func testResult(wall float64, ec float64) result {
	m := metrics{}
	for _, d := range endToEnd {
		v := wall
		m[d.Name] = metric{Value: &v, Unit: d.Unit}
	}
	pl := metrics{}
	pl.set("sched.ec", ec)
	return result{Schema: resultSchema, Seed: 1, Workloads: []workloadResult{{
		Name: "fsm_ml", GraphSHA256: "abc", Digests: map[string]string{"fsm": "d1"}, EndToEnd: m, PerLayer: pl,
	}}}
}

func TestCompareSides(t *testing.T) {
	runs := func(rs ...result) side { return side{runs: rs} }
	var out bytes.Buffer
	// Three runs a side: the spread is taken between runs.
	a := runs(testResult(1.00, 5), testResult(1.01, 5), testResult(1.02, 5))
	b := runs(testResult(1.03, 5), testResult(1.04, 5), testResult(1.05, 5))
	if code := compareSides(&out, a, b); code != 0 {
		t.Errorf("3%% slower within a 10%% bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	slow := runs(testResult(1.30, 5), testResult(1.31, 5), testResult(1.32, 5))
	if code := compareSides(&out, a, slow); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("30%% slower: exit %d\n%s", code, out.String())
	}
	// work_per_s carries the same numbers but is better when higher.
	if !regexp.MustCompile(`work_per_s .* ok`).MatchString(out.String()) {
		t.Errorf("a higher work_per_s must be ok:\n%s", out.String())
	}
	out.Reset()
	noisy := runs(testResult(0.8, 5), testResult(1.0, 5), testResult(1.2, 5))
	if code := compareSides(&out, a, noisy); code != 1 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a side that spreads 40%%: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSides(&out, a, runs(testResult(1.0, 6))); code != 1 || !strings.Contains(out.String(), "sched.ec") {
		t.Errorf("a different exact count for one seed: exit %d\n%s", code, out.String())
	}
}

func TestCompareRefusesQuickResults(t *testing.T) {
	r := testResult(1, 5)
	r.Quick = true
	path := filepath.Join(t.TempDir(), "quick.json")
	if err := writeJSON(path, r); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSide(path); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Errorf("loadSide accepted a -quick result: %v", err)
	}
}

func TestSameSeedSameGraphFiles(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range []graphSpec{communityGraph, fsmGraph, smallGraph} {
		sums := map[int64][2]string{}
		for _, seed := range []int64{7, 8} {
			var pair [2]string
			for i := range pair {
				path := filepath.Join(dir, spec.name+".el")
				if err := writeEdgeList(path, renumber(spec.gen(quickSizes), seed)); err != nil {
					t.Fatal(err)
				}
				sum, err := fileSHA256(path)
				if err != nil {
					t.Fatal(err)
				}
				pair[i] = sum
			}
			if pair[0] != pair[1] {
				t.Errorf("%s: seed %d gave two different files", spec.name, seed)
			}
			sums[seed] = pair
		}
		if sums[7] == sums[8] {
			t.Errorf("%s: seeds 7 and 8 gave the same file", spec.name)
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := withSelfTimes([]span{
		{ID: 1, StartS: 0, EndS: 10},
		{ID: 2, Parent: 1, StartS: 1, EndS: 5},
		{ID: 3, Parent: 1, StartS: 2, EndS: 6}, // overlaps span 2, as a worker overlaps its master
		{ID: 4, Parent: 1, StartS: 8, EndS: 9},
	})
	if got := spans[0].SelfS; got != 4 { // 10 - [1,6] - [8,9]
		t.Errorf("self time of the parent = %v, want 4", got)
	}
	if got := spans[1].SelfS; got != 4 {
		t.Errorf("self time of a leaf = %v, want its duration 4", got)
	}
}

func TestVmHWM(t *testing.T) {
	status := []byte("Name:\tfractal\nVmPeak:\t  999 kB\nVmHWM:\t   14532 kB\nVmRSS:\t   100 kB\n")
	if got := vmHWM(status); got != 14532 {
		t.Errorf("vmHWM = %d, want 14532", got)
	}
	if got := vmHWM([]byte("Name:\tzombie\nState:\tZ\n")); got != 0 {
		t.Errorf("a process without an address space has no VmHWM, got %d", got)
	}
}

// BENCHMARK.json is what the acceptance driver reads; metrics.go and
// workloads.go are what the harness runs. They must say the same.
func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	defs := workloads(fullSizes)
	if len(doc.Workloads) != len(defs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(defs))
	}
	for i, w := range defs {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workloads.go %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	// The driver gates the end-to-end metrics that are not advisory; the
	// advisory ones lead its per_layer list.
	bounded := gated(true)
	if len(doc.EndToEnd) != len(bounded) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d gated ones in metrics.go", len(doc.EndToEnd), len(bounded))
	}
	for i, d := range bounded {
		if got := doc.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, metrics.go %+v", i, got, d)
		}
	}
	unbounded := append(gated(false), perLayer...)
	if len(doc.PerLayer) != len(unbounded) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d advisory and per-layer ones in metrics.go", len(doc.PerLayer), len(unbounded))
	}
	for i, d := range unbounded {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, metrics.go %+v", i, got, d)
		}
	}
	for _, name := range exactCounts {
		unitOf(perLayer, name) // panics on a name that is not defined
	}
}

// The seed may change the layout of an input, never the work in it.
func TestRenumberKeepsStructureAndLabelPositions(t *testing.T) {
	triangles := func(g *graph.Graph) (n int) {
		var dst []graph.VertexID
		for id := 0; id < g.NumEdges(); id++ {
			u, v := g.EdgeEndpoints(graph.EdgeID(id))
			dst = graph.IntersectSorted(g.Neighbors(u), g.Neighbors(v), dst[:0])
			n += len(dst)
		}
		return n / 3
	}
	// Degrees per label: enough to tell a label-preserving isomorphism
	// from a mere permutation.
	profile := func(g *graph.Graph) map[[2]int]int {
		p := map[[2]int]int{}
		for v := 0; v < g.NumVertices(); v++ {
			p[[2]int{int(g.VertexLabel(graph.VertexID(v))), g.Degree(graph.VertexID(v))}]++
		}
		return p
	}
	for _, spec := range []graphSpec{communityGraph, fsmGraph} {
		base := spec.gen(quickSizes)
		re := renumber(base, 42)
		if re.NumVertices() != base.NumVertices() || re.NumEdges() != base.NumEdges() {
			t.Fatalf("%s: %d/%d vertices/edges became %d/%d", spec.name, base.NumVertices(), base.NumEdges(), re.NumVertices(), re.NumEdges())
		}
		moved := 0
		for v := 0; v < base.NumVertices(); v++ {
			id := graph.VertexID(v)
			if base.VertexLabel(id) != re.VertexLabel(id) {
				t.Fatalf("%s: vertex %d changed its label", spec.name, v)
			}
			if base.Degree(id) != re.Degree(id) {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("%s: no vertex changed its degree: nothing was renumbered", spec.name)
		}
		if !reflect.DeepEqual(profile(base), profile(re)) {
			t.Errorf("%s: the degrees per label changed", spec.name)
		}
		if a, b := triangles(base), triangles(re); a != b {
			t.Errorf("%s: %d triangles became %d", spec.name, a, b)
		}
	}
}
