package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// fakeRunner stands for the two revisions' harnesses: it records the order
// of the runs and answers each from a script, with no git and no child
// process.
type fakeRunner struct {
	calls []string
	// rss gives a side's peak_rss_mb in its i-th untraced run.
	rss func(side string, i int) float64
	// counters and digests are a side's traced counters and every run's
	// digests.
	counters map[string]map[string]float64
	digests  map[string]map[string]string
	runs     map[string]int
}

func (f *fakeRunner) run(side, workload string, traced bool) (*runResult, error) {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	f.calls = append(f.calls, fmt.Sprintf("%s %s %s", workload, side, kind))
	res := &runResult{Metrics: map[string]float64{}, Digests: f.digests[side], Attempted: 5}
	if traced {
		for name, v := range f.counters[side] {
			res.Metrics[name] = v
		}
		return res, nil
	}
	res.Metrics["peak_rss_mb"] = f.rss(side, f.runs[side])
	res.Metrics["setup_s"] = 0.1
	f.runs[side]++
	return res, nil
}

func newFake() *fakeRunner {
	counters := map[string]float64{"sched.ec": 10, "sched.subgraphs": 20, "sched.agg_shipped_bytes": 30, "sched.transport_msgs": 6, "sched.transport_bytes": 900}
	digests := map[string]string{"fsm": "abc"}
	return &fakeRunner{
		rss:      func(side string, i int) float64 { return 20 },
		counters: map[string]map[string]float64{sideBase: counters, sideHead: counters},
		digests:  map[string]map[string]string{sideBase: digests, sideHead: digests},
		runs:     map[string]int{},
	}
}

var pairDefs = []metricDef{{Name: "peak_rss_mb", Unit: "MB", Better: "lower"}, {Name: "setup_s", Unit: "s", Better: "lower"}}

// TestPairRunsAlternate: the base runs first in even pairs and HEAD in odd
// ones, every workload gets its n pairs, and each side's traced run comes
// after them.
func TestPairRunsAlternate(t *testing.T) {
	f := newFake()
	if _, err := pairRuns(f, []string{"w1", "w2"}, 3, pairDefs, io.Discard); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, w := range []string{"w1", "w2"} {
		want = append(want,
			w+" base untraced", w+" head untraced",
			w+" head untraced", w+" base untraced",
			w+" base untraced", w+" head untraced",
			w+" base traced", w+" head traced")
	}
	if !slices.Equal(f.calls, want) {
		t.Errorf("runs in the order\n%s\nwant\n%s", strings.Join(f.calls, "\n"), strings.Join(want, "\n"))
	}
}

// TestPairStatistics: medians and quartiles are the benchmark's (Python's
// exclusive method), "lower in" counts the pairs each side won, and a tie
// counts for neither.
func TestPairStatistics(t *testing.T) {
	f := newFake()
	base := []float64{20.4, 20.2, 20.6, 20.3, 20.5}
	head := []float64{19.1, 19.3, 20.6, 19.0, 19.2}
	f.rss = func(side string, i int) float64 {
		if side == sideBase {
			return base[i]
		}
		return head[i]
	}
	ws, err := pairRuns(f, []string{"fsm"}, 5, pairDefs, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	m := ws[0].Metrics[0]
	if m.Name != "peak_rss_mb" || m.Unit != "MB" || m.Better != "lower" {
		t.Fatalf("first metric %+v, want peak_rss_mb in MB, lower is better", m)
	}
	near := func(got, want float64) bool { return got-want < 1e-9 && want-got < 1e-9 }
	// sorted base 20.2 20.3 20.4 20.5 20.6: q1 at 1.5 → 20.25, q3 at 4.5 → 20.55.
	if !near(m.Base.Median, 20.4) || !near(m.Base.Q1, 20.25) || !near(m.Base.Q3, 20.55) {
		t.Errorf("base median %v, quartiles %v %v; want 20.4, 20.25, 20.55", m.Base.Median, m.Base.Q1, m.Base.Q3)
	}
	if !near(m.Head.Median, 19.2) || !near(m.Gap, -1.2) {
		t.Errorf("head median %v, gap %v; want 19.2 and -1.2", m.Head.Median, m.Gap)
	}
	if m.Head.LowerIn != 4 || m.Base.LowerIn != 0 {
		t.Errorf("lower in: head %d, base %d of 5; want 4 and 0 (pair 3 is a tie)", m.Head.LowerIn, m.Base.LowerIn)
	}
	if !slices.Equal(m.Base.Samples, base) || !slices.Equal(m.Head.Samples, head) {
		t.Errorf("samples %v / %v, want them in pair order", m.Base.Samples, m.Head.Samples)
	}
	if ws[0].Attempted[sideHead] != 25 || ws[0].Failed[sideBase] != 0 {
		t.Errorf("jobs %v failed %v, want 25 attempted a side", ws[0].Attempted, ws[0].Failed)
	}
}

// TestPairExactCounters: identical traced counters and digests on both
// sides are identical, the advisory transport bytes may differ, and any
// exact counter or digest that differs is named.
func TestPairExactCounters(t *testing.T) {
	f := newFake()
	ws, err := pairRuns(f, []string{"fsm"}, 2, pairDefs, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if ex := ws[0].Exact; !ex.Identical || ex.Counters["sched.ec"][sideHead] != 10 || ex.Digests[sideBase]["fsm"] != "abc" {
		t.Errorf("the same counters on both sides: %+v", ex)
	}

	f = newFake()
	head := map[string]float64{}
	for k, v := range f.counters[sideBase] {
		head[k] = v
	}
	head["sched.transport_bytes"] = 950
	f.counters[sideHead] = head
	ws, _ = pairRuns(f, []string{"fsm"}, 2, pairDefs, io.Discard)
	if !ws[0].Exact.Identical || ws[0].Advisory["sched.transport_bytes"][sideHead] != 950 {
		t.Errorf("only the advisory counter differs: %+v %+v", ws[0].Exact, ws[0].Advisory)
	}

	delete(head, "sched.subgraphs")
	delete(f.counters[sideBase], "sched.agg_shipped_bytes")
	delete(head, "sched.agg_shipped_bytes")
	ws, _ = pairRuns(f, []string{"fsm"}, 2, pairDefs, io.Discard)
	drift := strings.Join(ws[0].Exact.Drift, "; ")
	if _, ok := ws[0].Exact.Counters["sched.agg_shipped_bytes"]; ok || !strings.Contains(drift, "sched.subgraphs") || strings.Contains(drift, "shipped") {
		t.Errorf("a counter one side does not report differs, one neither reports is left out: %+v", ws[0].Exact)
	}

	head["sched.subgraphs"] = 20
	head["sched.ec"] = 11
	f.digests[sideHead] = map[string]string{"fsm": "abd"}
	ws, _ = pairRuns(f, []string{"fsm"}, 2, pairDefs, io.Discard)
	drift = strings.Join(ws[0].Exact.Drift, "; ")
	if ws[0].Exact.Identical || !strings.Contains(drift, "sched.ec") || !strings.Contains(drift, "digests") {
		t.Errorf("sched.ec and the digests differ: identical=%v drift %q", ws[0].Exact.Identical, drift)
	}
}

// TestParseResult reads a workload's metrics out of a benchmark result
// file; a null metric is left out.
func TestParseResult(t *testing.T) {
	data := []byte(`{"workloads":[{"name":"other"},{"name":"fsm_ml","digests":{"fsm":"d1"},"attempted":7,"failed":1,
		"end_to_end":{"peak_rss_mb":{"value":20.3,"unit":"MB"},"job_wall_s":{"value":null,"unit":"s"}},
		"per_layer":{"sched.ec":{"value":123,"unit":"count"}}}]}`)
	res, err := parseResult(data, "fsm_ml")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["peak_rss_mb"] != 20.3 || res.Metrics["sched.ec"] != 123 || len(res.Metrics) != 2 ||
		res.Digests["fsm"] != "d1" || res.Attempted != 7 || res.Failed != 1 {
		t.Errorf("parsed %+v", res)
	}
	if _, err := parseResult(data, "motifs5_sl"); err == nil {
		t.Error("a result file without the workload parsed")
	}
}
