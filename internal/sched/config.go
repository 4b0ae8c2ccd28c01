// Package sched implements Fractal's distributed runtime (Section 4): an
// application master coordinating a set of workers, each running multiple
// execution cores; the depth-first step processing of Algorithm 1; the
// from-scratch step execution of Algorithm 2; and the hierarchical
// (internal + external) work-stealing mechanism of Section 4.2 with
// master-coordinated quiescence detection.
//
// The paper builds this on Spark (master/worker scheduling) and Akka
// (worker-to-worker actors); here both roles are played by the transports of
// internal/rpc. Workers share the process address space, so the input graph
// and the fractoid closures are shared by reference (Spark broadcasts and
// closure serialization play that role in the original), while aggregation
// results and stolen work prefixes always cross the transport as encoded
// bytes — preserving the cost asymmetry between internal and external work
// stealing that the hierarchical design exploits.
package sched

import (
	"fmt"
	"time"

	"fractal/internal/metrics"
	"fractal/internal/rpc"
)

// WorkStealing selects the load-balancing configuration (the four scenarios
// of Figure 16).
type WorkStealing uint8

const (
	// WSNone disables both levels (configuration "1.Disabled").
	WSNone WorkStealing = iota
	// WSInternal enables only same-worker stealing ("2.Internal").
	WSInternal
	// WSExternal enables only cross-worker stealing ("3.External").
	WSExternal
	// WSBoth enables the full hierarchical strategy ("4.Internal+External").
	WSBoth
)

// String implements fmt.Stringer.
func (ws WorkStealing) String() string {
	switch ws {
	case WSNone:
		return "disabled"
	case WSInternal:
		return "internal"
	case WSExternal:
		return "external"
	case WSBoth:
		return "internal+external"
	}
	return fmt.Sprintf("WorkStealing(%d)", uint8(ws))
}

func (ws WorkStealing) internal() bool { return ws == WSInternal || ws == WSBoth }
func (ws WorkStealing) external() bool { return ws == WSExternal || ws == WSBoth }

// Config describes a runtime deployment.
type Config struct {
	// Workers is the number of worker nodes (default 1).
	Workers int
	// CoresPerWorker is the number of execution cores per worker
	// (default 1).
	CoresPerWorker int
	// WS selects the work-stealing configuration. Its zero value is WSNone,
	// which New keeps; fractal.NewContext starts from WSBoth.
	WS WorkStealing
	// ListenAddr switches the runtime into master mode: instead of spawning
	// in-process workers, the master binds a TCP listener at this address
	// (e.g. ":7001", "127.0.0.1:0") and serves registrations from
	// fractal-worker processes (ServeWorker). Jobs must then be submitted as
	// serializable specs (RunSpec); Workers is ignored, and the
	// worker set is dynamic — workers may register at any time, including
	// mid-job, and join at the next step attempt. CoresPerWorker, WS and
	// WorkerTimeout are dictated to every registering worker in the
	// registration reply, so all participants execute under one
	// configuration.
	ListenAddr string
	// WorkerTimeout is how long the master waits on silence — no status
	// report from any participant during a step, no aggregation data at
	// its end — before it probes the workers and, when a ping stays
	// unanswered through as long a silence again, declares a worker lost
	// and fails the attempt with a WorkerLostError (default 1 minute). It
	// is the master's only timer during a step (DESIGN §11 prices that),
	// and it bounds a master's wait for a registered worker before a job's
	// step 0.
	WorkerTimeout time.Duration
	// StepRetries is how many times the master re-executes a step after a
	// worker loss before giving up. Steps execute from scratch, so a retry
	// discards the failed attempt's partials, excludes the lost worker for
	// the rest of the job (unless that would leave no workers), and replays
	// the step from its input fractoid. At the zero default a worker loss
	// fails the job with the WorkerLostError itself; with retries enabled an
	// exhausted budget fails it with a RetryExhaustedError. A master does not
	// charge the budget for a worker it cannot send to: it forgets that
	// worker (a restarted process registers anew) and re-executes the step
	// over the others.
	StepRetries int
	// FaultInjector, when non-nil, wraps every transport (master and
	// workers) so each message send consults it first — the fault-injection
	// harness behind the chaos tests. See rpc.Script for the scripted
	// implementation. Production deployments leave it nil.
	FaultInjector rpc.FaultInjector
	// Trace enables the structured trace journal: every run records step,
	// quiescence, steal, and cancellation events into a ring of
	// metrics.DefaultTraceCapacity events exposed through
	// Result.Report.Trace; the oldest events are overwritten when it fills.
	// Disabled tracing costs one nil check per event site.
	Trace bool

	// idleSleep is the base of the external steal back-off: a core out of
	// work waits this long before it first asks the other workers, and
	// twice as long (up to 64×) after every fruitless round. It is not a
	// polling period — a core waiting for its siblings blocks until one of
	// them grants it work or the step ends. Zero means 100µs; only tests
	// set it.
	idleSleep time.Duration
	// retryBackoff is the pause between a worker-loss failure and the next
	// attempt of the step; cancellation during it returns promptly. Zero
	// means 5ms; only tests set it.
	retryBackoff time.Duration
}

// ConfigError reports a configuration field rejected by validation. Both the
// functional options of the public API and Validate return it, so callers can
// distinguish a bad deployment description from runtime failures with
// errors.As.
type ConfigError struct {
	// Field names the offending Config field.
	Field string
	// Reason says what was wrong with it, including the rejected value.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sched: invalid config: %s %s", e.Field, e.Reason)
}

// Validate rejects nonsensical deployment descriptions. Zero values are legal
// everywhere — they mean "use the default" (withDefaults) — so only values
// that could previously slip through and silently coerce (negatives, and
// zero-after-explicit-set mistakes surface at the option layer) are errors
// here.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return &ConfigError{Field: "Workers", Reason: fmt.Sprintf("must be at least 1, got %d", c.Workers)}
	}
	if c.CoresPerWorker < 0 {
		return &ConfigError{Field: "CoresPerWorker", Reason: fmt.Sprintf("must be at least 1, got %d", c.CoresPerWorker)}
	}
	if c.StepRetries < 0 {
		return &ConfigError{Field: "StepRetries", Reason: fmt.Sprintf("must not be negative, got %d", c.StepRetries)}
	}
	if c.WS > WSBoth {
		return &ConfigError{Field: "WS", Reason: fmt.Sprintf("unknown work-stealing mode %d", c.WS)}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CoresPerWorker <= 0 {
		c.CoresPerWorker = 1
	}
	if c.idleSleep <= 0 {
		c.idleSleep = 100 * time.Microsecond
	}
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = time.Minute
	}
	if c.retryBackoff <= 0 {
		c.retryBackoff = 5 * time.Millisecond
	}
	return c
}

// TotalCores returns Workers × CoresPerWorker.
func (c Config) TotalCores() int { return c.Workers * c.CoresPerWorker }

// StepReport summarizes the execution of one fractal step (the rows of
// Figure 16 and the balance data of Figures 8 and 19).
type StepReport struct {
	// Index is the step's position in the job's step list.
	Index int `json:"index"`
	// Workflow is the compact primitive string, e.g. "EEEA".
	Workflow string `json:"workflow"`
	// Skipped marks effect-free steps the master did not execute.
	Skipped bool `json:"skipped,omitempty"`
	// Cancelled marks a step abandoned mid-flight (context cancellation,
	// deadline, or worker loss). Its metrics reflect the partial work done
	// before the cancellation took effect, and its aggregations were
	// discarded rather than merged.
	Cancelled bool `json:"cancelled,omitempty"`
	// Attempts is how many times the step was executed (1 on the fault-free
	// path; each worker-loss retry adds one). The step's other metrics
	// describe the final attempt only — failed attempts' partials are
	// discarded, not merged.
	Attempts int `json:"attempts,omitempty"`
	// AbandonedExts counts enumerator extensions discarded by a cancelled
	// step: a lower bound on the enumeration work that remained.
	AbandonedExts int64 `json:"abandoned_exts,omitempty"`
	// Wall is the wall-clock duration of the step.
	Wall time.Duration `json:"wall_ns"`
	// Balance is the per-core work distribution.
	Balance metrics.Balance `json:"balance"`
	// Utilization is busy-time / (cores × wall): the fraction of core-time
	// spent holding work rather than idling for lack of it (the CPU
	// utilization of Figure 8). Cores that are runnable but descheduled
	// count as busy, so the measure is meaningful on hosts with fewer
	// hardware threads than configured cores.
	Utilization float64 `json:"utilization"`
	// EC is the extension cost (candidate tests).
	EC int64 `json:"ec"`
	// Subgraphs is the number of complete embeddings processed.
	Subgraphs int64 `json:"subgraphs"`
	// StealsInternal and StealsExternal count successful steals.
	StealsInternal int64 `json:"steals_internal"`
	StealsExternal int64 `json:"steals_external"`
	// StealBytes is the serialized volume shipped by external steals.
	StealBytes int64 `json:"steal_bytes"`
	// StealOverhead is steal-time / busy-time.
	StealOverhead float64 `json:"steal_overhead"`
	// PeakStateBytes is the peak enumerator-state estimate: the sum of the
	// cores' own stack peaks, an upper bound of what they pinned at any one
	// moment.
	PeakStateBytes int64 `json:"peak_state_bytes"`
	// AggMergeTime is the wall time spent reducing aggregation partials
	// outside the enumeration loop: every worker's per-core tree merge plus
	// encode, and the master's decode plus per-worker tree merge.
	AggMergeTime time.Duration `json:"agg_merge_time_ns"`
	// AggShippedBytes is the encoded aggregation volume shipped from
	// workers to the master at step end (the external result-shipping cost
	// the compact wire codec cuts).
	AggShippedBytes int64 `json:"agg_shipped_bytes"`
	// Metrics is the step's counter block — its cores' blocks summed per
	// worker and then over the workers, in every deployment — and the
	// canonical export schema (the scalar fields above are derived from it
	// and remain for convenience).
	Metrics metrics.Snapshot `json:"metrics"`
	// Rounds records the liveness probes of the final attempt, sent after
	// WorkerTimeout of silence: 0 on a healthy run. RoundsTotal is their
	// number.
	Rounds      []QuiescenceRound `json:"rounds,omitempty"`
	RoundsTotal int               `json:"rounds_total"`
}
