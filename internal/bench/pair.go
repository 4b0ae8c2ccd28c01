package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// The pair runner (`fractal-bench -pair`): a measured claim is HEAD against
// a base revision on the repository benchmark, each revision running its own
// benchmark/ as a black box, in alternating pairs on one host, and the
// result is a BENCH_<label>.json file at the repository root. Wall-clock
// numbers on a shared host compare only when measured together, so both
// sides always run in one invocation, interleaved.

// PairOptions configures Pair.
type PairOptions struct {
	// Base is the revision HEAD is compared against (any git revision).
	Base string
	// N is the number of alternating pairs per workload (default 10).
	N int
	// Seed is the benchmark's -seed (default 1).
	Seed int64
	// Workload names the workloads of BENCHMARK.json to run, separated by
	// commas; empty runs every one.
	Workload string
	// Label names the output file, BENCH_<label>.json; empty derives one
	// from the workload and the seed.
	Label string
	// Repo is the repository's root directory (default ".").
	Repo string
	// Log receives progress lines (default io.Discard).
	Log io.Writer
}

// The two sides of a pair.
const (
	sideBase = "base"
	sideHead = "head"
)

// exactCounters are the traced run's counters that must not move between two
// revisions that claim not to change the work: on the same seed they are
// deterministic. advisoryCounters are recorded side by side only:
// sched.transport_bytes carries varint nanoseconds in the counter blocks, so
// it varies from run to run.
var (
	exactCounters    = []string{"sched.ec", "sched.subgraphs", "sched.agg_shipped_bytes", "sched.transport_msgs"}
	advisoryCounters = []string{"sched.transport_bytes"}
)

// runResult is what one benchmark run reports of one workload: its result
// file's metrics (end-to-end ones, and per-layer ones when traced), the
// reference digest of each job kind, and its job counts.
type runResult struct {
	Metrics   map[string]float64
	Digests   map[string]string
	Attempted int
	Failed    int
}

// sideRunner runs one benchmark invocation of one side on one workload.
type sideRunner interface {
	run(side, workload string, traced bool) (*runResult, error)
}

// PairFile is the content of a BENCH_<label>.json file.
type PairFile struct {
	Label     string         `json:"label"`
	Seed      int64          `json:"seed"`
	Pairs     int            `json:"pairs"`
	Base      Revision       `json:"base"`
	Head      Revision       `json:"head"`
	Host      Host           `json:"host"`
	Workloads []PairWorkload `json:"workloads"`
}

// Revision names one side: the revision as given and the commit it is.
type Revision struct {
	Name   string `json:"name"`
	Commit string `json:"commit"`
}

// Host records the facts that make two files comparable or not.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	GOMAXPROCS string `json:"gomaxprocs"`
	Platform   string `json:"platform"`
}

// PairWorkload is one workload's pairs.
type PairWorkload struct {
	Name    string       `json:"name"`
	Metrics []PairMetric `json:"metrics"`
	// Attempted and Failed sum the jobs of every untraced run, per side.
	Attempted map[string]int `json:"attempted"`
	Failed    map[string]int `json:"failed"`
	// Exact holds the traced run's digests and exact counters per side, and
	// whether they are identical; Advisory the advisory counters.
	Exact    ExactCounters                 `json:"exact"`
	Advisory map[string]map[string]float64 `json:"advisory"`
}

// PairMetric is one metric's samples on both sides.
type PairMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
	// Better is "lower" or "higher", as BENCHMARK.json declares it.
	Better string    `json:"better,omitempty"`
	Base   SideStats `json:"base"`
	Head   SideStats `json:"head"`
	Gap    float64   `json:"median_gap"` // head median − base median
}

// SideStats summarises one side's samples of a metric. LowerIn counts the
// pairs in which this side read lower than the other, of Samples' length.
type SideStats struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	LowerIn int       `json:"lower_in"`
	Samples []float64 `json:"samples"`
}

// ExactCounters is the traced runs' comparison. A counter neither side
// reported is left out of Counters.
type ExactCounters struct {
	Identical bool                          `json:"identical"`
	Counters  map[string]map[string]float64 `json:"counters"`
	Digests   map[string]map[string]string  `json:"digests"`
	// Drift lists what differs: an exact counter or digest between the
	// sides, or a side whose untraced runs disagree on a digest.
	Drift []string `json:"drift,omitempty"`
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON is what the runner reads of a BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// pairRuns runs n alternating pairs of untraced runs per workload — the
// base first in even pairs, HEAD first in odd ones, so a drift of the host
// falls on both sides alike — then one traced run a side, and summarises
// them. defs gives the units and directions of the metrics.
func pairRuns(r sideRunner, workloads []string, n int, defs []metricDef, log io.Writer) ([]PairWorkload, error) {
	var out []PairWorkload
	for _, w := range workloads {
		samples := map[string]map[string][]float64{sideBase: {}, sideHead: {}}
		pw := PairWorkload{Name: w, Attempted: map[string]int{}, Failed: map[string]int{}}
		digests := map[string]map[string]string{}
		var drift []string
		for i := 0; i < n; i++ {
			order := []string{sideBase, sideHead}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, side := range order {
				res, err := r.run(side, w, false)
				if err != nil {
					return nil, fmt.Errorf("%s, pair %d, %s: %w", w, i+1, side, err)
				}
				fmt.Fprintf(log, "%s pair %d/%d %s: %s\n", w, i+1, n, side, brief(res.Metrics))
				for name, v := range res.Metrics {
					samples[side][name] = append(samples[side][name], v)
				}
				pw.Attempted[side] += res.Attempted
				pw.Failed[side] += res.Failed
				if digests[side] == nil {
					digests[side] = res.Digests
				} else if !maps.Equal(digests[side], res.Digests) {
					drift = append(drift, fmt.Sprintf("%s: digests differ between untraced runs", side))
				}
			}
		}
		pw.Metrics = pairMetrics(samples, defs)
		traced := map[string]*runResult{}
		for _, side := range []string{sideBase, sideHead} {
			res, err := r.run(side, w, true)
			if err != nil {
				return nil, fmt.Errorf("%s, traced, %s: %w", w, side, err)
			}
			traced[side] = res
		}
		pw.Exact, pw.Advisory = compareTraced(traced)
		pw.Exact.Drift = append(drift, pw.Exact.Drift...)
		pw.Exact.Identical = len(pw.Exact.Drift) == 0
		out = append(out, pw)
	}
	return out, nil
}

// pairMetrics summarises the samples of every metric both sides reported,
// pair by pair, in name order.
func pairMetrics(samples map[string]map[string][]float64, defs []metricDef) []PairMetric {
	var names []string
	for name := range samples[sideBase] {
		if len(samples[sideHead][name]) == len(samples[sideBase][name]) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []PairMetric
	for _, name := range names {
		b, h := samples[sideBase][name], samples[sideHead][name]
		m := PairMetric{Name: name, Base: stats(b), Head: stats(h)}
		for _, d := range defs {
			if d.Name == name {
				m.Unit, m.Better = d.Unit, d.Better
			}
		}
		for i := range b {
			switch {
			case b[i] < h[i]:
				m.Base.LowerIn++
			case h[i] < b[i]:
				m.Head.LowerIn++
			}
		}
		m.Gap = m.Head.Median - m.Base.Median
		out = append(out, m)
	}
	return out
}

// compareTraced holds the traced runs' digests and exact counters side by
// side and lists what differs; the advisory counters are only recorded.
func compareTraced(traced map[string]*runResult) (ExactCounters, map[string]map[string]float64) {
	ex := ExactCounters{Counters: map[string]map[string]float64{}, Digests: map[string]map[string]string{}}
	adv := map[string]map[string]float64{}
	for side, res := range traced {
		ex.Digests[side] = res.Digests
	}
	if !maps.Equal(traced[sideBase].Digests, traced[sideHead].Digests) {
		ex.Drift = append(ex.Drift, "digests differ between the sides")
	}
	for _, name := range exactCounters {
		b, inBase := traced[sideBase].Metrics[name]
		h, inHead := traced[sideHead].Metrics[name]
		switch {
		case !inBase && !inHead:
			continue // not reported by either side (a master's report on a distributed job)
		case inBase != inHead || b != h:
			ex.Drift = append(ex.Drift, name+" differs between the sides")
		}
		ex.Counters[name] = map[string]float64{sideBase: b, sideHead: h}
	}
	for _, name := range advisoryCounters {
		adv[name] = map[string]float64{}
		for side, res := range traced {
			adv[name][side] = res.Metrics[name]
		}
	}
	return ex, adv
}

// stats is the median, the quartiles and the samples of xs. The quartiles
// are the ones the benchmark computes (benchmark/stats.go): Python's
// statistics.quantiles(xs, n=4), the "exclusive" method.
func stats(xs []float64) SideStats {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	st := SideStats{Samples: xs}
	n := len(s)
	switch {
	case n == 0:
		return st
	case n%2 == 1:
		st.Median = s[n/2]
	default:
		st.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		st.Q1, st.Q3 = s[0], s[0]
		return st
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	st.Q1, st.Q3 = at(1), at(3)
	return st
}

// brief renders a run's metrics on one line, in name order.
func brief(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.4g", name, m[name])
	}
	return b.String()
}

// Pair checks out the base revision and HEAD into git worktrees of a
// temporary directory, so that both builds are VCS-stamped, builds each
// side's own benchmark harness, runs the pairs and writes
// BENCH_<label>.json at the repository root. It returns the file's path.
func Pair(o PairOptions) (string, error) {
	if o.Base == "" {
		return "", fmt.Errorf("-pair needs -base <rev>")
	}
	if o.N <= 0 {
		o.N = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Repo == "" {
		o.Repo = "."
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Label == "" {
		o.Label = fmt.Sprintf("pair_%s_seed%d", strings.NewReplacer(",", "_").Replace(orAll(o.Workload)), o.Seed)
	}
	repo, err := gitOut(o.Repo, "rev-parse", "--show-toplevel")
	if err != nil {
		return "", err
	}
	// The harnesses are built by the go command on PATH, and run with this
	// process's environment.
	goVersion, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOVERSION: %w", err)
	}
	pf := PairFile{Label: o.Label, Seed: o.Seed, Pairs: o.N, Host: Host{
		NumCPU: runtime.NumCPU(), GoVersion: strings.TrimSpace(string(goVersion)),
		GOMAXPROCS: os.Getenv("GOMAXPROCS"), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}}
	if pf.Host.GOMAXPROCS == "" {
		pf.Host.GOMAXPROCS = fmt.Sprint(runtime.GOMAXPROCS(0))
	}
	tmp, err := os.MkdirTemp("", "fractal-pair-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	r := &execRunner{seed: o.Seed, tmp: tmp, harness: map[string]string{}, tree: map[string]string{}}
	for _, side := range []struct {
		name string
		rev  *Revision
		arg  string
	}{{sideBase, &pf.Base, o.Base}, {sideHead, &pf.Head, "HEAD"}} {
		commit, err := gitOut(repo, "rev-parse", "--verify", side.arg+"^{commit}")
		if err != nil {
			return "", err
		}
		*side.rev = Revision{Name: side.arg, Commit: commit}
		tree := filepath.Join(tmp, side.name)
		if _, err := gitOut(repo, "worktree", "add", "--detach", tree, commit); err != nil {
			return "", err
		}
		defer gitOut(repo, "worktree", "remove", "--force", tree)
		r.tree[side.name] = tree
		r.harness[side.name] = filepath.Join(tmp, "harness-"+side.name)
		build := exec.Command("go", "build", "-o", r.harness[side.name], ".")
		build.Dir = filepath.Join(tree, "benchmark")
		if out, err := build.CombinedOutput(); err != nil {
			return "", fmt.Errorf("building the %s side's benchmark: %v\n%s", side.name, err, out)
		}
	}
	var spec benchmarkJSON
	data, err := os.ReadFile(filepath.Join(r.tree[sideHead], "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		return "", fmt.Errorf("reading HEAD's BENCHMARK.json: %w", err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if o.Workload != "" {
		want := strings.Split(o.Workload, ",")
		for _, w := range want {
			if !slices.Contains(workloads, w) {
				return "", fmt.Errorf("no workload %q in BENCHMARK.json", w)
			}
		}
		workloads = want
	}
	pf.Workloads, err = pairRuns(r, workloads, o.N, append(spec.EndToEnd, spec.PerLayer...), o.Log)
	if err != nil {
		return "", err
	}
	out, err := json.MarshalIndent(pf, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(repo, "BENCH_"+o.Label+".json")
	return path, os.WriteFile(path, append(out, '\n'), 0o644)
}

func orAll(w string) string {
	if w == "" {
		return "all"
	}
	return w
}

// gitOut runs git in dir and returns its trimmed standard output.
func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// execRunner runs a side's prebuilt benchmark harness in its worktree's
// benchmark/ directory, where the harness finds its checkout, and reads the
// result file it writes.
type execRunner struct {
	seed    int64
	tmp     string
	tree    map[string]string
	harness map[string]string
	runs    int
}

func (r *execRunner) run(side, workload string, traced bool) (*runResult, error) {
	r.runs++
	trace := "0"
	if traced {
		trace = "1"
	}
	out := filepath.Join(r.tmp, fmt.Sprintf("result-%d-%s.json", r.runs, side))
	cmd := exec.Command(r.harness[side], "-seed", fmt.Sprint(r.seed), "-workload", workload, "-trace", trace, "-out", out)
	cmd.Dir = filepath.Join(r.tree[side], "benchmark")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	runErr := cmd.Run()
	// A run whose jobs failed exits 1 after writing its result file, which
	// counts them; without the file there is nothing to count.
	data, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%v: %s", runErr, lastLines(stderr.String(), 5))
		}
		return nil, err
	}
	return parseResult(data, workload)
}

// resultMetric is a metric of a result file; a null value is one the run
// could not measure.
type resultMetric struct {
	Value *float64 `json:"value"`
}

// parseResult reads one workload's entry of a benchmark result file.
func parseResult(data []byte, workload string) (*runResult, error) {
	var file struct {
		Workloads []struct {
			Name      string                  `json:"name"`
			Digests   map[string]string       `json:"digests"`
			Attempted int                     `json:"attempted"`
			Failed    int                     `json:"failed"`
			EndToEnd  map[string]resultMetric `json:"end_to_end"`
			PerLayer  map[string]resultMetric `json:"per_layer"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("reading a result file: %w", err)
	}
	for _, w := range file.Workloads {
		if w.Name != workload {
			continue
		}
		res := &runResult{Metrics: map[string]float64{}, Digests: w.Digests, Attempted: w.Attempted, Failed: w.Failed}
		for _, ms := range []map[string]resultMetric{w.EndToEnd, w.PerLayer} {
			for name, m := range ms {
				if m.Value != nil {
					res.Metrics[name] = *m.Value
				}
			}
		}
		return res, nil
	}
	return nil, fmt.Errorf("the result file has no workload %q", workload)
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
