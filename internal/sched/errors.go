package sched

import (
	"errors"
	"fmt"
	"strings"
)

// WorkerLostError reports that the master gave up on a worker mid-job: a
// control message could not be delivered to it, it said it is not running
// the step attempt it was sent (errNotRunning), or it stopped answering
// status pings / shipping aggregation partials within Config.WorkerTimeout.
// With Config.StepRetries at its zero default the job fails with this error
// instead of blocking in quiescence polling; with retries enabled the master
// discards the attempt, excludes the lost worker, and re-executes the step.
// A master that could not send to a registered worker re-executes without
// charging the retry budget, and forgets the worker.
// The runtime itself stays usable for subsequent jobs as long as the lost
// worker's transport recovers (in-process workers only disappear at
// shutdown, so in practice this surfaces TCP transport failures and injected
// faults).
type WorkerLostError struct {
	// Worker is the lost worker's ID. -1 means no single worker could be
	// blamed (a grant lost in flight with its credit).
	Worker int
	// Step is the index of the step whose attempt the loss aborted.
	Step int
	// Phase names the master activity that detected the loss
	// ("step-start", "quiescence", "steal-balance", "aggregation").
	Phase string
	// Err is the underlying transport error, one wrapping errNotRunning
	// when the worker answered that it is not running the attempt, and nil
	// when it simply went silent.
	Err error
}

// errNotRunning is what the Err of a worker that answered that it is not
// running the attempt it was named in wraps: its step start was lost, or it
// could not install the job (a graph file it cannot read, an app its binary
// lacks), and then Err says why.
var errNotRunning = errors.New("the worker is not running the attempt")

// notRunning is the Err of a worker's not-running reply; reason is its Err.
func notRunning(reason string) error {
	if reason == "" {
		return fmt.Errorf("%w: its step start was lost", errNotRunning)
	}
	return fmt.Errorf("%w: it could not install the job: %s", errNotRunning, reason)
}

func (e *WorkerLostError) Error() string {
	who := fmt.Sprintf("worker %d", e.Worker)
	if e.Worker < 0 {
		who = "steal traffic"
	}
	if e.Err != nil {
		return fmt.Sprintf("sched: %s lost during %s of step %d: %v", who, e.Phase, e.Step, e.Err)
	}
	return fmt.Sprintf("sched: %s lost during %s of step %d: no report within worker timeout", who, e.Phase, e.Step)
}

func (e *WorkerLostError) Unwrap() error { return e.Err }

// RetryExhaustedError reports that a step kept losing workers until the
// retry budget (Config.StepRetries) ran out. Attempts counts the executions
// of the step, so Attempts == StepRetries+1, plus on a master one per worker
// it could not send to (those cost no retry); Last is the worker loss that
// ended the final attempt, reachable through errors.As/Is via Unwrap. It is
// only produced when retries are enabled — at the zero default the first
// WorkerLostError surfaces directly.
type RetryExhaustedError struct {
	// Step is the index of the step that could not complete.
	Step int
	// Attempts is how many times the step was executed.
	Attempts int
	// Last is the worker loss that failed the final attempt.
	Last *WorkerLostError
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("sched: step %d failed after %d attempts: %v", e.Step, e.Attempts, e.Last)
}

func (e *RetryExhaustedError) Unwrap() error { return e.Last }

// AggregationError reports that a step's aggregation results could not be
// assembled correctly: a worker failed to merge or encode a per-core
// partial, failed to ship one to the master, or the master failed to decode
// and merge a shipped partial. The job fails with this error instead of
// silently committing a wrong (partially merged) or incomplete aggregation
// — the result of a step either reflects every core's contribution or is
// not produced at all.
type AggregationError struct {
	// Worker is the worker whose partials are affected (-1 when the
	// failure happened at the master).
	Worker int
	// Reasons lists the underlying failures, one per affected aggregation
	// (a worker reports every aggregation that failed, not just the
	// first).
	Reasons []string
}

func (e *AggregationError) Error() string {
	where := fmt.Sprintf("worker %d", e.Worker)
	if e.Worker < 0 {
		where = "master"
	}
	return fmt.Sprintf("sched: aggregation failed at %s: %s", where, strings.Join(e.Reasons, "; "))
}
