package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

const resultSchema = "fractal-benchmark/1"

// result is the result file: one harness invocation.
type result struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Quick     bool             `json:"quick"`
	Seconds   float64          `json:"seconds"`
	Host      string           `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name        string            `json:"name"`
	Why         string            `json:"why"`
	WorkUnit    string            `json:"work_unit"`
	WorkPerJob  int64             `json:"work_per_job"`
	GraphSHA256 string            `json:"graph_sha256"`
	Digests     map[string]string `json:"digests"` // reference digest by job kind
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailRatio   float64           `json:"fail_ratio"`
	EndToEnd    metrics           `json:"end_to_end,omitempty"`
	PerLayer    metrics           `json:"per_layer,omitempty"`
	Breakdown   *breakdown        `json:"breakdown,omitempty"`
	Jobs        []jobRecord       `json:"jobs"`
}

// jobRecord is one child job (one process, or master plus workers).
type jobRecord struct {
	Phase   string  `json:"phase"` // reference, oracle, timed, baseline, traced
	Kind    string  `json:"kind"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	RSSMB   float64 `json:"rss_mb"`
	Digest  string  `json:"digest,omitempty"`
	Failure string  `json:"failure,omitempty"`
	Stderr  string  `json:"stderr,omitempty"` // kept for failed jobs only

	stdout string
}

// breakdown accounts for the wall time of the traced jobs that wrote a
// RunReport: outside the run, inside its steps, and the rest of the run.
type breakdown struct {
	Jobs          int        `json:"jobs"` // traced jobs with a RunReport
	TracedWallS   float64    `json:"traced_wall_s"`
	OutsideRunS   float64    `json:"outside_run_s"`
	StepWallS     float64    `json:"step_wall_s"`
	RunGapS       float64    `json:"run_gap_s"`       // RunReport.wall - Σ step wall
	UntracedWallS float64    `json:"untraced_wall_s"` // Σ untraced median wall of the same job kinds
	Accounted     float64    `json:"accounted"`       // (outside + step wall) / untraced wall
	CoreTime      []modelRow `json:"core_time"`       // the program's own partition of core time
	Model         []modelRow `json:"model"`           // probe unit cost x program count
}

type modelRow struct {
	Layer   string  `json:"layer"`
	How     string  `json:"how"`
	Seconds float64 `json:"seconds"`
}

type harness struct {
	ctx                     context.Context
	outDir, binDir, dataDir string
	seed                    int64
	quick                   bool
	seconds                 float64
	sz                      sizes
	tr                      *tracer

	written map[string]string // graph name -> SHA-256 of the file jobs read
	probes  metrics           // measured once per process
	buildS  float64           // first build of this process
	built   bool
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func (h *harness) cli(parent int, args ...string) procResult {
	return runProc(h.ctx, h.tr, parent, jobTimeout, filepath.Join(h.binDir, "fractal"), args...)
}

// build compiles the four binaries of the repository under test into
// out/bin. A repeated build is the toolchain's up-to-date check.
func (h *harness) build(parent int) error {
	var res procResult
	d := h.tr.in(parent, "build", func(id int) {
		p, err := startProc(h.tr, id, "go", "build", "-o", h.binDir+"/", "./cmd/fractal", "./cmd/fractal-worker", "./cmd/fractal-gen", "./cmd/fractal-bench")
		if err != nil {
			res.failure = err.Error()
			return
		}
		res = p.wait(h.ctx, 15*time.Minute)
	})
	if !h.built {
		h.built, h.buildS = true, d
	}
	if res.failure != "" {
		return fmt.Errorf("go build: %s\n%s", res.failure, res.stderr)
	}
	return nil
}

// ensureGraph writes a graph unless this process already has.
func (h *harness) ensureGraph(parent int, spec graphSpec) error {
	if _, ok := h.written[spec.name]; ok {
		return nil
	}
	sum, err := h.writeGraph(parent, spec)
	if err != nil {
		return err
	}
	h.written[spec.name] = sum
	return nil
}

// setup does everything a job needs before it can start — build, generate,
// write, convert — several times over, because the driver bounds setup_s
// and one sample of it would be too noisy to bound. It checks that the same
// seed gave the same bytes each time.
func (h *harness) setup(parent int, w workloadDef) ([]float64, error) {
	reps := 5
	if h.quick {
		reps = 1
	}
	var times []float64
	for i := 0; i < reps; i++ {
		var err error
		var sum string
		times = append(times, h.tr.in(parent, "setup", func(id int) {
			if err = h.build(id); err == nil {
				sum, err = h.writeGraph(id, w.graph)
			}
		}))
		if err != nil {
			return nil, err
		}
		if prev, ok := h.written[w.graph.name]; ok && prev != sum {
			return nil, fmt.Errorf("seed %d gave two different %s files: %s then %s", h.seed, w.graph.name, prev, sum)
		}
		h.written[w.graph.name] = sum
	}
	return times, nil
}

// noReport is what the CLI says, exiting 1 after printing its result, when
// -metrics-out meets a job that ran entirely in the decomposition sweep:
// such a Result carries no RunReport. The job's output is complete, so the
// traced round keeps it and only goes without its report.
const noReport = "no run report available"

// runOp runs one job of the workload and checks it against ref, the
// reference digest of its kind ("" while the reference itself runs).
func (h *harness) runOp(parent int, w workloadDef, op opKind, dist bool, phase, ref string, extra ...string) jobRecord {
	args := append([]string{"-graph", w.graph.path(h.dataDir)}, op.args...)
	args = append(args, extra...)
	var res procResult
	h.tr.in(parent, phase+":"+op.name, func(id int) {
		if dist {
			res = runDist(h.ctx, h.tr, id, filepath.Join(h.binDir, "fractal"), filepath.Join(h.binDir, "fractal-worker"), args)
		} else {
			res = h.cli(id, append(args, "-workers", "1", "-cores", "2")...)
		}
	})
	rec := jobRecord{
		Phase: phase, Kind: op.name, WallS: res.wall.Seconds(), CPUS: res.cpu.Seconds(), RSSMB: float64(res.rssKB) / 1024,
		Failure: res.failure, stdout: res.stdout,
	}
	if phase == "traced" && res.failure == "exit 1" && strings.Contains(res.stderr, noReport) {
		rec.Failure = ""
	}
	if rec.Failure == "" {
		rec.Digest = digest(res.stdout)
		if ref != "" && rec.Digest != ref {
			rec.Failure = fmt.Sprintf("digest %s, want %s", rec.Digest, ref)
		}
	}
	if rec.Failure != "" {
		rec.Stderr = res.stderr
		h.logf("  %s %s %s FAILED: %s", w.name, phase, op.name, rec.Failure)
	}
	return rec
}

// runWorkload sets one workload up, establishes its reference results and
// runs its untraced and/or traced part. Only a failed set-up is an error; a
// failed job is counted and the run goes on.
func (h *harness) runWorkload(w workloadDef, untraced, traced bool) (workloadResult, error) {
	h.tr.setWorkload(w.name)
	root := h.tr.begin(0, "workload:"+w.name)
	defer h.tr.end(root)
	wr := workloadResult{Name: w.name, Why: w.why, WorkUnit: w.workUnit, Digests: map[string]string{}}
	h.logf("%s: set-up", w.name)
	setupS, err := h.setup(root, w)
	if err != nil {
		return wr, err
	}
	wr.GraphSHA256 = h.written[w.graph.name]
	add := func(rec jobRecord) jobRecord {
		wr.Jobs = append(wr.Jobs, rec)
		return rec
	}

	// Reference round, untimed: it warms the page cache and fixes the
	// digest every later job of the kind must reproduce.
	h.logf("%s: reference jobs", w.name)
	for _, op := range w.ops {
		rec := add(h.runOp(root, w, op, w.dist, "reference", referenceDigest(op.name, h.seed, h.quick)))
		if rec.Failure == "" {
			wr.Digests[op.name] = rec.Digest
			if wr.WorkPerJob = w.work(rec.stdout); wr.WorkPerJob == 0 {
				return wr, fmt.Errorf("reference job %s printed no %s count:\n%s", op.name, w.workUnit, rec.stdout)
			}
		}
	}
	if w.oracle != nil {
		add(h.runOp(root, w, *w.oracle, false, "oracle", wr.Digests[w.ops[0].name]))
	}

	var timed []jobRecord
	round := func(phase string) {
		for _, op := range w.ops {
			if h.ctx.Err() != nil {
				return
			}
			timed = append(timed, add(h.runOp(root, w, op, w.dist, phase, wr.Digests[op.name])))
		}
	}
	switch {
	case untraced:
		// Closed loop, one client: whole rounds until the time is up and
		// the workload has its minimum of ops.
		h.logf("%s: timed jobs for %.0f s", w.name, h.seconds)
		deadline := time.Now().Add(time.Duration(h.seconds * float64(time.Second)))
		for h.ctx.Err() == nil {
			round("timed")
			if h.quick || len(timed) >= w.minOps && !time.Now().Before(deadline) {
				break
			}
		}
	default:
		// A traced run alone: a few untraced rounds first, the baseline of
		// the overhead ratio and of the run's own end-to-end numbers.
		rounds := w.traceRounds
		if h.quick {
			rounds = 1
		}
		for i := 0; i < rounds; i++ {
			round("baseline")
		}
	}
	wr.EndToEnd = endToEndMetrics(w, wr.WorkPerJob, setupS, timed)

	if traced && h.ctx.Err() == nil {
		h.logf("%s: traced jobs and probes", w.name)
		if err := h.tracedPart(root, w, &wr, timed); err != nil {
			return wr, err
		}
	}

	for _, rec := range wr.Jobs {
		wr.Attempted++
		if rec.Failure != "" {
			wr.Failed++
		}
	}
	wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
	return wr, nil
}

func good(recs []jobRecord) []jobRecord {
	var out []jobRecord
	for _, r := range recs {
		if r.Failure == "" {
			out = append(out, r)
		}
	}
	return out
}

// endToEndMetrics reduces the timed jobs to the five bounded metrics. A
// time is estimated per job kind by fasterHalf and averaged over the kinds
// (one kind on three workloads, six on small_jobs_el, where a plain quantile
// over all ops would sit in the gap between two kinds' clusters). A failed
// job gives no sample; the failure counts in fail_ratio. The per-round means
// go along as samples, for -compare's spread of a single file.
func endToEndMetrics(w workloadDef, work int64, setupS []float64, timed []jobRecord) metrics {
	var wall, cpu float64
	peak := 0.0
	for _, op := range w.ops {
		var ws, cs []float64
		for _, r := range good(timed) {
			if r.Kind == op.name {
				ws, cs = append(ws, r.WallS), append(cs, r.CPUS)
				peak = max(peak, r.RSSMB)
			}
		}
		wall += fasterHalf(ws) / float64(len(w.ops))
		cpu += fasterHalf(cs) / float64(len(w.ops))
	}
	var wallRounds, cpuRounds, rateRounds []float64
	for i := 0; i+len(w.ops) <= len(timed); i += len(w.ops) {
		round := timed[i : i+len(w.ops)]
		if len(good(round)) < len(round) {
			continue
		}
		var ws, cs float64
		for _, r := range round {
			ws += r.WallS
			cs += r.CPUS
		}
		n := float64(len(round))
		wallRounds = append(wallRounds, ws/n)
		cpuRounds = append(cpuRounds, cs/n)
		rateRounds = append(rateRounds, float64(work)*n/ws)
	}
	m := metrics{}
	put := func(name string, v float64, samples []float64) {
		m[name] = metric{Value: &v, Unit: unitOf(endToEnd, name), N: len(samples), Samples: samples}
	}
	put("setup_s", median(setupS), setupS)
	put("job_wall_s", wall, wallRounds)
	rate := 0.0
	if wall > 0 {
		rate = float64(work) / wall
	}
	put("work_per_s", rate, rateRounds)
	put("cpu_s", cpu, cpuRounds)
	put("peak_rss_mb", peak, nil)
	return m
}

// tracedPart runs one more round with -trace -metrics-out, the CLI start-up
// probe and the layer probes, and derives the per-layer metrics and the
// breakdown. base are this run's untraced jobs.
func (h *harness) tracedPart(root int, w workloadDef, wr *workloadResult, base []jobRecord) error {
	m := metrics{}
	var stats reportStats
	var withReport []jobRecord
	var outside []float64
	var tracedWall, baseWall float64
	for _, op := range w.ops {
		path := filepath.Join(h.outDir, fmt.Sprintf("report-%s-%s.json", w.name, op.name))
		os.Remove(path) // a stale report must not stand in for a missing one
		rec := h.runOp(root, w, op, w.dist, "traced", wr.Digests[op.name], "-trace", "-metrics-out", path)
		wr.Jobs = append(wr.Jobs, rec)
		if rec.Failure != "" {
			continue
		}
		tracedWall += rec.WallS
		baseWall += medianWall(base, op.name)
		rep, err := readReport(path)
		if os.IsNotExist(err) {
			continue // see noReport
		}
		if err != nil {
			return err
		}
		stats.add(rep, w.dist)
		withReport = append(withReport, rec)
		outside = append(outside, rec.WallS-rep.Wall.Seconds())
	}
	stats.into(m)

	m.set("cli.build_s", h.buildS)
	m.set("cli.startup_s", medianOf(5, func() float64 {
		return h.cli(root, "-explain", "-app", "motifs", "-k", "5").wall.Seconds()
	}))
	m.set("cli.outside_run_s", mean(outside))
	var walls []float64
	for _, r := range good(base) {
		walls = append(walls, r.WallS)
	}
	if v, pct, ok := hiPercentile(walls); ok {
		m["cli.op_wall_hi_s"] = metric{Value: &v, Unit: "s", N: len(walls), Note: fmt.Sprintf("p%d", pct)}
	} else {
		v := 0.0
		if len(walls) > 0 {
			v = slices.Max(walls)
		}
		m["cli.op_wall_hi_s"] = metric{Value: &v, Unit: "s", N: len(walls), Note: "maximum: under 21 samples no percentile above the median has ten beyond it"}
	}
	ratio := 0.0
	if baseWall > 0 {
		ratio = tracedWall / baseWall
	}
	m.set("metrics.trace_overhead_ratio", ratio)

	if h.probes == nil {
		p, err := h.runProbes(root)
		if err != nil {
			return err
		}
		h.probes = p
	}
	for name, v := range h.probes {
		m[name] = v
	}
	wr.PerLayer = m
	wr.Breakdown = newBreakdown(w, m, &stats, withReport, outside, base)
	return nil
}

func medianWall(recs []jobRecord, kind string) float64 {
	var xs []float64
	for _, r := range good(recs) {
		if r.Kind == kind {
			xs = append(xs, r.WallS)
		}
	}
	return median(xs)
}

func val(m metrics, name string) float64 {
	if v := m[name].Value; v != nil {
		return *v
	}
	return 0
}

// newBreakdown builds the table "outside the run + inside its steps ≈ job
// wall" over the traced jobs that wrote a report, the program's own
// partition of core time, and a model of where busy time goes: each probe's
// unit cost times the count the program made. The model is an estimate from
// outside; spans inside the program are a later change.
func newBreakdown(w workloadDef, m metrics, s *reportStats, jobs []jobRecord, outside []float64, base []jobRecord) *breakdown {
	b := &breakdown{Jobs: len(jobs), StepWallS: s.stepWall.Seconds(), RunGapS: (s.runWall - s.stepWall).Seconds()}
	for i, r := range jobs {
		b.TracedWallS += r.WallS
		b.OutsideRunS += outside[i]
		b.UntracedWallS += medianWall(base, r.Kind)
	}
	if b.UntracedWallS > 0 {
		b.Accounted = (b.OutsideRunS + b.StepWallS) / b.UntracedWallS
	}
	b.CoreTime = []modelRow{
		{"sched.busy", "cores holding work, summed over cores", s.busy.Seconds()},
		{"sched.idle", "cores without work", s.idle.Seconds()},
		{"sched.steal", "cores scanning for work to steal", s.steal.Seconds()},
		{"sched.agg_merge", "aggregation merge, encode, decode outside the loop", s.aggMerge.Seconds()},
		{"sched.quiescence_wait", "master waiting for status replies", s.quiescenceWait.Seconds()},
	}
	ec, sub := float64(s.ec), float64(s.subgraphs)
	ns := func(name string) float64 { return val(m, name) / 1e9 }
	switch w.name {
	case "motifs5_sl":
		b.Model = []modelRow{{"subgraph+graph", "sched.ec x subgraph.ext_ns_per_test", ec * ns("subgraph.ext_ns_per_test")}}
	case "fsm_ml":
		b.Model = []modelRow{
			{"subgraph", "sched.ec x subgraph.edge_ext_ns_per_test", ec * ns("subgraph.edge_ext_ns_per_test")},
			{"agg", "sched.subgraphs x agg.insert_ns_per_op", sub * ns("agg.insert_ns_per_op")},
			{"pattern", "sched.subgraphs x pattern.canon_ns_per_op", sub * ns("pattern.canon_ns_per_op")},
		}
	case "small_jobs_el":
		b.Model = []modelRow{
			{"graph", "jobs x graph.load_el_s", float64(len(jobs)) * val(m, "graph.load_el_s")},
			{"subgraph+graph", "sched.ec x subgraph.ext_ns_per_test", ec * ns("subgraph.ext_ns_per_test")},
		}
	}
	return b
}

// printWorkload prints every metric by name with its unit.
func printWorkload(out io.Writer, wr workloadResult) {
	fmt.Fprintf(out, "\n== %s  (one job: %d %s; %d jobs attempted, %d failed, fail_ratio %.3f)\n",
		wr.Name, wr.WorkPerJob, wr.WorkUnit, wr.Attempted, wr.Failed, wr.FailRatio)
	kinds := make([]string, 0, len(wr.Digests))
	for k := range wr.Digests {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(out, "  digest %-14s %s\n", k, wr.Digests[k])
	}
	printMetrics(out, endToEnd, wr.EndToEnd)
	printMetrics(out, perLayer, wr.PerLayer)
	if b := wr.Breakdown; b != nil {
		fmt.Fprintf(out, "  breakdown of %d traced job(s) with a RunReport, wall %.3f s (untraced median %.3f s)\n", b.Jobs, b.TracedWallS, b.UntracedWallS)
		fmt.Fprintf(out, "    %-24s %9.3f s  load, registration, print, teardown\n", "cli.outside_run", b.OutsideRunS)
		fmt.Fprintf(out, "    %-24s %9.3f s\n", "sched.step_wall", b.StepWallS)
		fmt.Fprintf(out, "    %-24s %9.3f s  RunReport wall outside its steps\n", "run gap", b.RunGapS)
		fmt.Fprintf(out, "    %-24s %9.3f    (outside + step wall) / untraced wall\n", "accounted", b.Accounted)
		for _, r := range b.CoreTime {
			fmt.Fprintf(out, "    %-24s %9.3f core-s  %s\n", r.Layer, r.Seconds, r.How)
		}
		for _, r := range b.Model {
			fmt.Fprintf(out, "    model %-18s %9.3f core-s  %s\n", r.Layer, r.Seconds, r.How)
		}
	}
}

func printMetrics(out io.Writer, defs []metricDef, m metrics) {
	if m == nil {
		return
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		num := "null"
		if v.Value != nil {
			num = fmt.Sprintf("%.6g", *v.Value)
		}
		extra := ""
		if v.N > 0 {
			extra = fmt.Sprintf("  n=%d", v.N)
		}
		if len(v.Samples) > 1 {
			extra += fmt.Sprintf(" spread=%.1f%%", 100*spread(v.Samples))
		}
		if v.Note != "" {
			extra += "  " + v.Note
		}
		fmt.Fprintf(out, "  %-30s %14s %-6s%s\n", d.Name, num, d.Unit, extra)
	}
}
