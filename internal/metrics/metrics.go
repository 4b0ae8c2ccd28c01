// Package metrics defines the measurements used throughout the paper's
// evaluation: extension cost (EC, the number of candidate tests performed
// during enumeration, Section 4.3), per-core busy work for load-balance and
// scalability analysis (Figures 8, 16, 19), work-stealing counters and
// overhead (Section 6), and intermediate-state byte estimates (Table 2,
// Section 4.1).
//
// Rationale for work units: the reproduction runs on machines where true
// parallel wall-clock speedup may not be observable (for example a single
// physical core). What Figures 8/16/17/18/19 fundamentally measure is how
// evenly the enumeration work is distributed across cores. The runtime
// therefore accounts deterministic work units (extension tests + emitted
// subgraphs) per core; makespan is the maximum per-core work and parallel
// efficiency is totalWork / (cores × makespan). Single-configuration runtime
// comparisons (Figures 11-13, 15, 20a) still use wall-clock time.
//
// The counters live with whoever counts: Snapshot is a plain counter block,
// written by one execution core, summed per worker when the step's cores
// have stopped, and carried to the master by the message that ends the
// attempt — the same in one process and across many. The Tracer (trace.go)
// is the only synchronised structure here.
package metrics

import "sort"

// Balance summarizes a per-core work distribution.
type Balance struct {
	Cores      int     `json:"cores"`
	Total      int64   `json:"total"`
	Makespan   int64   `json:"makespan"`   // max per-core work
	Mean       float64 `json:"mean"`       // total / cores
	Efficiency float64 `json:"efficiency"` // total / (cores * makespan); 1.0 = perfect balance
	PerCore    []int64 `json:"per_core"`   // sorted descending
}

// BalanceOf computes the Balance summary of a work vector.
func BalanceOf(work []int64) Balance {
	b := Balance{Cores: len(work), PerCore: append([]int64(nil), work...)}
	sort.Slice(b.PerCore, func(i, j int) bool { return b.PerCore[i] > b.PerCore[j] })
	for _, w := range work {
		b.Total += w
		if w > b.Makespan {
			b.Makespan = w
		}
	}
	if b.Cores > 0 {
		b.Mean = float64(b.Total) / float64(b.Cores)
	}
	if b.Makespan > 0 && b.Cores > 0 {
		b.Efficiency = float64(b.Total) / (float64(b.Cores) * float64(b.Makespan))
	}
	return b
}

// Snapshot is the counter block of one step attempt, and the only
// accumulator: a plain struct with no synchronisation. Each execution core
// owns one and is its sole writer while the step runs; when the cores have
// stopped, the worker adds them into one block (Add), adds its own
// step-tail quantities, and ships the sum to the master with the message
// that ends the attempt; the master adds the workers' blocks in rank order.
// Nothing reads a block before its writer is done, which is what lets the
// hot path count without atomics or shared cache lines. The JSON form is the
// stable export schema of the runtime's RunReport, consumed by the bench
// harness.
type Snapshot struct {
	ExtensionTests int64 `json:"extension_tests"`
	Subgraphs      int64 `json:"subgraphs"`
	StealsInternal int64 `json:"steals_internal"`
	StealsExternal int64 `json:"steals_external"`
	StealBytes     int64 `json:"steal_bytes"`
	StealTimeNs    int64 `json:"steal_time_ns"`
	// BusyTimeNs, IdleTimeNs and StealTimeNs are disjoint: together they
	// partition each core's wall-clock lifetime within a step (holding work;
	// blocked with nothing asked because nobody had work to give; blocked
	// waiting for the answer to a steal request).
	BusyTimeNs int64 `json:"busy_time_ns"`
	IdleTimeNs int64 `json:"idle_time_ns"`
	// PeakStateBytes is the peak intermediate-state estimate: each core
	// reports the peak of its own enumerator stack, and the blocks of cores
	// and workers sum — an upper bound of the simultaneous peak, never lower.
	PeakStateBytes int64 `json:"peak_state_bytes"`
	// AbandonedExts counts enumerator extensions discarded by a cancelled
	// step.
	AbandonedExts int64 `json:"abandoned_exts"`
	// AggMergeTimeNs is wall time spent reducing aggregation partials
	// outside the enumeration loop (a worker's per-core tree merge plus
	// encode, the master's decode plus per-worker tree merge);
	// AggShippedBytes the encoded bytes workers shipped to the master.
	AggMergeTimeNs  int64 `json:"agg_merge_time_ns"`
	AggShippedBytes int64 `json:"agg_shipped_bytes"`
	// QuickPatterns counts the distinct quick patterns the cores' embedding
	// class memos met (memo misses, summed over cores) and CanonCalls the
	// canonical-labelling searches run: one per quick pattern plus those of
	// class filters that label a class's sub-patterns. Pattern labelling is
	// paid per class and core, and these two against Subgraphs say so.
	QuickPatterns int64 `json:"quick_patterns"`
	CanonCalls    int64 `json:"canon_calls"`
	// ClassesPruned counts the classes a class filter refused (per core,
	// summed) and SubgraphsPruned the embeddings those memoised verdicts
	// turned away before they reached an aggregation. ExtensionTests is
	// untouched by either: a class filter saves aggregation work only.
	ClassesPruned   int64 `json:"classes_pruned"`
	SubgraphsPruned int64 `json:"subgraphs_pruned"`
	// CoreWork holds the work units of every core the block covers, one
	// entry per core: a core's block has one, a worker's one per core in
	// core order, a step's one per core of the attempt in global core order.
	CoreWork []int64 `json:"core_work"`
}

// Work returns the block's work units: extension tests plus emitted
// subgraphs, the deterministic load measure of the package comment.
func (s *Snapshot) Work() int64 { return s.ExtensionTests + s.Subgraphs }

// Add folds o into s. Every counter sums; o's cores follow s's in CoreWork,
// so adding blocks in core (or worker rank) order yields the work vector in
// global core order. o's slice is copied, never aliased.
func (s *Snapshot) Add(o Snapshot) {
	s.ExtensionTests += o.ExtensionTests
	s.Subgraphs += o.Subgraphs
	s.StealsInternal += o.StealsInternal
	s.StealsExternal += o.StealsExternal
	s.StealBytes += o.StealBytes
	s.StealTimeNs += o.StealTimeNs
	s.BusyTimeNs += o.BusyTimeNs
	s.IdleTimeNs += o.IdleTimeNs
	s.PeakStateBytes += o.PeakStateBytes
	s.AbandonedExts += o.AbandonedExts
	s.AggMergeTimeNs += o.AggMergeTimeNs
	s.AggShippedBytes += o.AggShippedBytes
	s.QuickPatterns += o.QuickPatterns
	s.CanonCalls += o.CanonCalls
	s.ClassesPruned += o.ClassesPruned
	s.SubgraphsPruned += o.SubgraphsPruned
	s.CoreWork = append(s.CoreWork, o.CoreWork...)
}

// StealOverhead returns time-in-stealing / busy-time, the Section 6 number.
func (s Snapshot) StealOverhead() float64 {
	if s.BusyTimeNs == 0 {
		return 0
	}
	return float64(s.StealTimeNs) / float64(s.BusyTimeNs)
}

// Balance returns the balance summary of the snapshot's core work.
func (s Snapshot) Balance() Balance { return BalanceOf(s.CoreWork) }

// EmbeddingBytes estimates the in-memory size of one stored embedding with
// the given vertex and edge counts, matching the paper's Section 4.1
// accounting (identifiers only, no object overheads).
func EmbeddingBytes(numVertices, numEdges int) int64 {
	return int64(4 * (numVertices + numEdges))
}
