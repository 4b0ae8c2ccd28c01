package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; TestBenchmarkJSONInSync
// keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Advisory marks an end-to-end metric the acceptance driver does not
	// gate on: BENCHMARK.json lists it under per_layer, where metrics have
	// no bound, and the driver's result line carries it with -trace 1.
	Advisory bool
}

// endToEnd is what a user of the CLI sees. The issue's sixth metric,
// fail_ratio, must be 0 and the benchmark contract wants metrics that are
// never 0, so it is reported as failed/attempted beside these instead.
//
// The three time metrics are advisory. The driver accepts an end-to-end
// metric only if ten runs of one commit stay within its bound, and 25 % is
// the largest bound it allows. The reference host has two speeds: for
// minutes at a time every CPU-bound job takes a fifth to a third longer, in
// CPU time as much as in wall time (README.md, "The host"), so ten runs that
// straddle a change of speed spread by its full size whatever a run reports
// (28 % on fsm_ml_dist in one set of ten, 12 % in the next). The harness
// still measures, prints and stores them on every run, and -compare applies
// these bounds to them: they are for paired, alternating runs of two
// commits, which cancel what one run per side cannot.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"job_wall_s", "s", "lower", 0.25, true},
	{"work_per_s", "1/s", "higher", 0.25, true},
	{"cpu_s", "s", "lower", 0.25, true},
	{"peak_rss_mb", "MB", "lower", 0.15, false},
}

// gated returns the end-to-end metrics the driver bounds, or the advisory
// ones.
func gated(want bool) []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Advisory != want {
			out = append(out, d)
		}
	}
	return out
}

// perLayer is named <module>.<metric>. README.md says which end-to-end
// metric on which workload each one is expected to move.
var perLayer = []metricDef{
	{Name: "graph.load_el_s", Unit: "s", Better: "lower"},
	{Name: "graph.load_fgr_s", Unit: "s", Better: "lower"},
	{Name: "graph.fgr_bytes", Unit: "B", Better: "lower"},
	{Name: "graph.intersect_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "graph.intersect_elems", Unit: "count", Better: "lower"},
	{Name: "pattern.plan_compile_s", Unit: "s", Better: "lower"},
	{Name: "pattern.canon_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "pattern.canon_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "subgraph.ext_ns_per_test", Unit: "ns", Better: "lower"},
	{Name: "subgraph.ext_tests", Unit: "count", Better: "lower"},
	{Name: "subgraph.ext_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "subgraph.edge_ext_ns_per_test", Unit: "ns", Better: "lower"},
	{Name: "subgraph.localcount_s", Unit: "s", Better: "lower"},
	{Name: "subgraph.localcount_ops", Unit: "count", Better: "lower"},
	{Name: "enumerator.cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "enumerator.steal_ns", Unit: "ns", Better: "lower"},
	{Name: "agg.insert_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "agg.merge_tree_s", Unit: "s", Better: "lower"},
	{Name: "agg.encode_s", Unit: "s", Better: "lower"},
	{Name: "agg.decode_s", Unit: "s", Better: "lower"},
	{Name: "agg.wire_bytes", Unit: "B", Better: "lower"},
	{Name: "rpc.loopback_rtt_us", Unit: "us", Better: "lower"},
	{Name: "rpc.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "rpc.tcp_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "sched.ec", Unit: "count", Better: "lower"},
	{Name: "sched.subgraphs", Unit: "count", Better: "lower"},
	{Name: "sched.steals_internal", Unit: "count", Better: "lower"},
	{Name: "sched.steals_external", Unit: "count", Better: "lower"},
	{Name: "sched.steal_bytes", Unit: "B", Better: "lower"},
	{Name: "sched.agg_shipped_bytes", Unit: "B", Better: "lower"},
	{Name: "sched.transport_msgs", Unit: "count", Better: "lower"},
	{Name: "sched.transport_bytes", Unit: "B", Better: "lower"},
	{Name: "sched.quiescence_rounds", Unit: "count", Better: "lower"},
	{Name: "sched.peak_state_bytes", Unit: "B", Better: "lower"},
	{Name: "sched.step_wall_s", Unit: "s", Better: "lower"},
	{Name: "sched.busy_s", Unit: "s", Better: "lower"},
	{Name: "sched.idle_s", Unit: "s", Better: "lower"},
	{Name: "sched.steal_s", Unit: "s", Better: "lower"},
	{Name: "sched.agg_merge_s", Unit: "s", Better: "lower"},
	{Name: "sched.quiescence_wait_s", Unit: "s", Better: "lower"},
	{Name: "sched.utilization", Unit: "ratio", Better: "higher"},
	{Name: "cli.build_s", Unit: "s", Better: "lower"},
	{Name: "cli.startup_s", Unit: "s", Better: "lower"},
	{Name: "cli.outside_run_s", Unit: "s", Better: "lower"},
	{Name: "cli.op_wall_hi_s", Unit: "s", Better: "lower"},
	{Name: "metrics.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// exactCounts are made by the program or computed from the generated input
// and must repeat exactly for one seed; -compare treats any difference in
// them as an error, not as noise.
var exactCounts = []string{
	"graph.fgr_bytes", "graph.intersect_elems", "subgraph.ext_tests", "subgraph.localcount_ops",
	"agg.wire_bytes", "sched.ec", "sched.subgraphs",
}

// metric is one measured value. Value is nil where the program does not
// report the quantity (written as JSON null): master mode leaves the
// workers' counts out of its RunReport, and 0 would read as "no work".
type metric struct {
	Value   *float64  `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`       // samples behind Value
	Samples []float64 `json:"samples,omitempty"` // per round, for -compare's spread
	Note    string    `json:"note,omitempty"`
}

type metrics map[string]metric

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not defined in metrics.go")
}

// set records a per-layer value; the unit comes from the definition table
// so that a probe cannot invent a metric.
func (m metrics) set(name string, v float64) {
	m[name] = metric{Value: &v, Unit: unitOf(perLayer, name)}
}

func (m metrics) setNull(name, note string) {
	m[name] = metric{Unit: unitOf(perLayer, name), Note: note}
}
