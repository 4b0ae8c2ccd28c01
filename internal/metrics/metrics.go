// Package metrics collects the measurements used throughout the paper's
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
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Collector accumulates the metrics of one fractal step (or one whole
// application run). Safe for concurrent use by all cores.
type Collector struct {
	extTests  atomic.Int64
	subgraphs atomic.Int64

	stealsInternal atomic.Int64
	stealsExternal atomic.Int64
	stealBytes     atomic.Int64
	stealTimeNs    atomic.Int64
	stealScanWork  atomic.Int64
	busyTimeNs     atomic.Int64
	idleTimeNs     atomic.Int64

	peakStateBytes atomic.Int64
	abandonedExts  atomic.Int64

	aggMergeNs      atomic.Int64
	aggShippedBytes atomic.Int64

	coreWork []atomic.Int64
}

// NewCollector returns a Collector tracking the given number of cores.
func NewCollector(cores int) *Collector {
	return &Collector{coreWork: make([]atomic.Int64, cores)}
}

// AddExtensionTests adds n candidate tests (EC) attributed to core.
func (c *Collector) AddExtensionTests(core int, n int64) {
	c.extTests.Add(n)
	if core >= 0 && core < len(c.coreWork) {
		c.coreWork[core].Add(n)
	}
}

// AddSubgraphs adds n emitted subgraphs attributed to core. Subgraph
// emissions also count as one work unit each.
func (c *Collector) AddSubgraphs(core int, n int64) {
	c.subgraphs.Add(n)
	if core >= 0 && core < len(c.coreWork) {
		c.coreWork[core].Add(n)
	}
}

// AddInternalSteal records one successful internal (same-worker) steal.
func (c *Collector) AddInternalSteal() { c.stealsInternal.Add(1) }

// AddExternalSteal records one successful external steal shipping n bytes.
func (c *Collector) AddExternalSteal(n int64) {
	c.stealsExternal.Add(1)
	c.stealBytes.Add(n)
}

// AddStealTime records one interval a core spent in work-stealing code paths
// (victim scans, steal messaging, and response waits). work is how far the
// core's own work counter (CoreWorkOf) advanced meanwhile: always zero,
// because processing a stolen prefix is busy time, and recorded so tests
// can hold the accounting to that by a counter, not a wall-clock ratio.
func (c *Collector) AddStealTime(d time.Duration, work int64) {
	c.stealTimeNs.Add(int64(d))
	c.stealScanWork.Add(work)
}

// CoreWorkOf returns the work units (extension tests + emitted subgraphs)
// attributed to core so far.
func (c *Collector) CoreWorkOf(core int) int64 { return c.coreWork[core].Load() }

// AddBusyTime records time a core spent processing work.
func (c *Collector) AddBusyTime(d time.Duration) { c.busyTimeNs.Add(int64(d)) }

// AddIdleTime records time a core spent sleeping between failed steal
// attempts. Busy, idle, and steal time are disjoint: together they
// partition each core's wall-clock lifetime within a step.
func (c *Collector) AddIdleTime(d time.Duration) { c.idleTimeNs.Add(int64(d)) }

// AddAbandonedExts records enumerator extensions discarded by a cancelled
// step.
func (c *Collector) AddAbandonedExts(n int64) { c.abandonedExts.Add(n) }

// AbandonedExts returns the number of extensions discarded by cancellation.
func (c *Collector) AbandonedExts() int64 { return c.abandonedExts.Load() }

// AddAggMergeTime records wall time spent reducing aggregation partials
// outside the enumeration loop: a worker's per-core tree merge plus encode,
// and the master's decode plus per-worker tree merge. Together with
// AggShippedBytes it shows where aggregation-heavy workloads (FSM) spend
// their step tail.
func (c *Collector) AddAggMergeTime(d time.Duration) { c.aggMergeNs.Add(int64(d)) }

// AddAggShippedBytes records encoded aggregation bytes shipped from a worker
// to the master at step end.
func (c *Collector) AddAggShippedBytes(n int64) { c.aggShippedBytes.Add(n) }

// AggMergeTime returns the accumulated aggregation merge/codec wall time.
func (c *Collector) AggMergeTime() time.Duration { return time.Duration(c.aggMergeNs.Load()) }

// AggShippedBytes returns the encoded aggregation bytes shipped to the
// master.
func (c *Collector) AggShippedBytes() int64 { return c.aggShippedBytes.Load() }

// ObserveStateBytes raises the peak intermediate-state estimate to n if
// larger (monotone max).
func (c *Collector) ObserveStateBytes(n int64) {
	for {
		cur := c.peakStateBytes.Load()
		if n <= cur || c.peakStateBytes.CompareAndSwap(cur, n) {
			return
		}
	}
}

// ExtensionTests returns the accumulated EC.
func (c *Collector) ExtensionTests() int64 { return c.extTests.Load() }

// Subgraphs returns the number of emitted subgraphs.
func (c *Collector) Subgraphs() int64 { return c.subgraphs.Load() }

// Steals returns (internal, external) successful steal counts.
func (c *Collector) Steals() (internal, external int64) {
	return c.stealsInternal.Load(), c.stealsExternal.Load()
}

// StealBytes returns the bytes shipped by external steals.
func (c *Collector) StealBytes() int64 { return c.stealBytes.Load() }

// BusyTime returns the total time cores spent holding work (runnable or
// running), excluding both idle sleeps and time spent in steal code paths.
func (c *Collector) BusyTime() time.Duration { return time.Duration(c.busyTimeNs.Load()) }

// IdleTime returns the total time cores spent sleeping between failed
// steal attempts.
func (c *Collector) IdleTime() time.Duration { return time.Duration(c.idleTimeNs.Load()) }

// StealTime returns the total time cores spent in work-stealing code paths.
func (c *Collector) StealTime() time.Duration { return time.Duration(c.stealTimeNs.Load()) }

// StealOverhead returns time-in-stealing / busy-time, the Section 6 number.
func (c *Collector) StealOverhead() float64 {
	busy := c.busyTimeNs.Load()
	if busy == 0 {
		return 0
	}
	return float64(c.stealTimeNs.Load()) / float64(busy)
}

// PeakStateBytes returns the peak intermediate-state estimate.
func (c *Collector) PeakStateBytes() int64 { return c.peakStateBytes.Load() }

// CoreWork returns a snapshot of per-core work units.
func (c *Collector) CoreWork() []int64 {
	out := make([]int64, len(c.coreWork))
	for i := range c.coreWork {
		out[i] = c.coreWork[i].Load()
	}
	return out
}

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

// Balance returns the balance summary of the collector's core work.
func (c *Collector) Balance() Balance { return BalanceOf(c.CoreWork()) }

// String summarizes the collector.
func (c *Collector) String() string {
	in, ex := c.Steals()
	return fmt.Sprintf("metrics(EC=%d subgraphs=%d steals=%d/%d eff=%.2f)",
		c.ExtensionTests(), c.Subgraphs(), in, ex, c.Balance().Efficiency)
}

// Snapshot is a point-in-time copy of every counter in a Collector, in a
// stable JSON-friendly schema. It is safe to take while the run is in
// flight (each counter is read atomically; the set is not one consistent
// cut) and is the unit exported by the runtime's RunReport and consumed by
// the bench harness.
type Snapshot struct {
	ExtensionTests int64 `json:"extension_tests"`
	Subgraphs      int64 `json:"subgraphs"`
	StealsInternal int64 `json:"steals_internal"`
	StealsExternal int64 `json:"steals_external"`
	StealBytes     int64 `json:"steal_bytes"`
	StealTimeNs    int64 `json:"steal_time_ns"`
	// StealScanWork is the work booked to cores while they were inside a
	// steal-scan interval; anything but zero means stolen-work processing is
	// being accounted as steal time.
	StealScanWork   int64   `json:"steal_scan_work,omitempty"`
	BusyTimeNs      int64   `json:"busy_time_ns"`
	IdleTimeNs      int64   `json:"idle_time_ns"`
	PeakStateBytes  int64   `json:"peak_state_bytes"`
	AbandonedExts   int64   `json:"abandoned_exts"`
	AggMergeTimeNs  int64   `json:"agg_merge_time_ns"`
	AggShippedBytes int64   `json:"agg_shipped_bytes"`
	CoreWork        []int64 `json:"core_work"`
}

// Snapshot copies the collector's current counters.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		ExtensionTests:  c.extTests.Load(),
		Subgraphs:       c.subgraphs.Load(),
		StealsInternal:  c.stealsInternal.Load(),
		StealsExternal:  c.stealsExternal.Load(),
		StealBytes:      c.stealBytes.Load(),
		StealTimeNs:     c.stealTimeNs.Load(),
		StealScanWork:   c.stealScanWork.Load(),
		BusyTimeNs:      c.busyTimeNs.Load(),
		IdleTimeNs:      c.idleTimeNs.Load(),
		PeakStateBytes:  c.peakStateBytes.Load(),
		AbandonedExts:   c.abandonedExts.Load(),
		AggMergeTimeNs:  c.aggMergeNs.Load(),
		AggShippedBytes: c.aggShippedBytes.Load(),
		CoreWork:        c.CoreWork(),
	}
}

// Balance returns the balance summary of the snapshot's core work.
func (s Snapshot) Balance() Balance { return BalanceOf(s.CoreWork) }

// EmbeddingBytes estimates the in-memory size of one stored embedding with
// the given vertex and edge counts, matching the paper's Section 4.1
// accounting (identifiers only, no object overheads).
func EmbeddingBytes(numVertices, numEdges int) int64 {
	return int64(4 * (numVertices + numEdges))
}
