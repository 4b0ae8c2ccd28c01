// Structured run tracing: a fixed-capacity, overwrite-oldest event journal
// that records the scheduling-level story of a run — step starts and ends,
// quiescence rounds, steal attempts and their outcomes, cancellation and
// drains, worker loss. The journal is the raw material behind the paper's
// per-step/per-steal measurements (Sections 4.3 and 6, Figures 8/16-19): the
// terminal counters (Snapshot) answer "how much", the trace answers "when
// and in what order".
//
// Tracing is opt-in per run. The runtime holds a *Tracer that is nil when
// tracing is disabled, so every event site costs exactly one pointer
// comparison and zero allocations on the disabled path.
package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// TraceEventKind classifies a trace event.
type TraceEventKind uint8

const (
	// TraceStepStart marks the master broadcasting a step start.
	TraceStepStart TraceEventKind = iota + 1
	// TraceStepEnd marks the master completing a step (quiescence reached
	// and aggregations merged).
	TraceStepEnd
	// TraceQuiescenceRound marks one ping wave of the master's termination
	// detection; Round is the wave number and Value the activity its
	// answers reported.
	TraceQuiescenceRound
	// TraceStealAttempt marks a work-stealing attempt by a core: External
	// selects the level, Hit the outcome, and Value the number of
	// consecutive misses preceding the attempt (a hit reports the length
	// of the idle spell it ended). To keep the journal useful, internal
	// misses — which recur at the idle-sleep cadence — are only emitted
	// for the first miss of a spell; external attempts and all hits are
	// always emitted.
	TraceStealAttempt
	// TraceCancel marks the master abandoning a step (context cancellation,
	// deadline, or worker loss).
	TraceCancel
	// TraceDrain marks a drain completion: for a core that abandoned work
	// when its step was stopped, Value is the number of abandoned
	// extensions; for the master, Value is the number of workers that
	// answered the cancel.
	TraceDrain
	// TraceWorkerLost marks the master declaring a worker lost; Worker is
	// the lost worker's ID (-1 when no single worker could be blamed).
	TraceWorkerLost
	// TraceStepRetry marks the master re-executing a step after a worker
	// loss; Worker is the lost worker and Value the new attempt number.
	TraceStepRetry
	// TraceStealDecline marks a donor core answering a remote steal request
	// empty although it had work to give: its worker's credit has reached
	// the scheduler's exponent bound, and a grant could not carry a share.
	TraceStealDecline
)

var traceKindNames = map[TraceEventKind]string{
	TraceStepStart:       "step-start",
	TraceStepEnd:         "step-end",
	TraceQuiescenceRound: "quiescence-round",
	TraceStealAttempt:    "steal-attempt",
	TraceCancel:          "cancel",
	TraceDrain:           "drain",
	TraceWorkerLost:      "worker-lost",
	TraceStepRetry:       "step-retry",
	TraceStealDecline:    "steal-decline",
}

// String implements fmt.Stringer.
func (k TraceEventKind) String() string {
	if s, ok := traceKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TraceEventKind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its string name.
func (k TraceEventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind from its string name.
func (k *TraceEventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for kind, name := range traceKindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("metrics: unknown trace event kind %q", s)
}

// TraceEvent is one entry of the trace journal. The struct is flat and
// fixed-size so emitting an event is a copy, never an allocation.
type TraceEvent struct {
	// Seq is the global emission order (0-based, monotone across the run);
	// with a full ring it keeps counting even though old events are gone.
	Seq int64 `json:"seq"`
	// At is the elapsed time since the tracer was created.
	At time.Duration `json:"at_ns"`
	// Kind classifies the event.
	Kind TraceEventKind `json:"kind"`
	// Step is the fractal step index the event belongs to.
	Step int `json:"step"`
	// Worker and Core locate the emitter; -1 marks the master (Worker) or a
	// non-core context (Core).
	Worker int `json:"worker"`
	Core   int `json:"core"`
	// Round is the quiescence round for TraceQuiescenceRound events.
	Round int64 `json:"round,omitempty"`
	// External and Hit qualify TraceStealAttempt events.
	External bool `json:"external,omitempty"`
	Hit      bool `json:"hit,omitempty"`
	// Value carries a kind-specific quantity (see the kind constants).
	Value int64 `json:"value,omitempty"`
}

// DefaultTraceCapacity is the journal size of a traced run.
const DefaultTraceCapacity = 16384

// Tracer is a bounded event journal, safe for concurrent emission from all
// cores plus the master. When the ring is full the oldest events are
// overwritten; Dropped reports how many were lost.
type Tracer struct {
	start time.Time

	mu  sync.Mutex
	buf []TraceEvent
	seq int64 // total events ever emitted
}

// NewTracer returns a tracer with the given journal capacity (events);
// capacity <= 0 selects DefaultTraceCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{start: time.Now(), buf: make([]TraceEvent, 0, capacity)}
}

// Emit appends ev to the journal, stamping its Seq and At fields.
func (t *Tracer) Emit(ev TraceEvent) {
	t.mu.Lock()
	ev.Seq = t.seq
	ev.At = time.Since(t.start)
	t.seq++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[int(ev.Seq)%cap(t.buf)] = ev
	}
	t.mu.Unlock()
}

// Len returns the number of events currently retained.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped returns the number of events lost to ring overwrites.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq - int64(len(t.buf))
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) && t.seq > int64(len(t.buf)) {
		// The ring wrapped: the oldest retained event lives at seq%cap.
		head := int(t.seq) % cap(t.buf)
		out = append(out, t.buf[head:]...)
		out = append(out, t.buf[:head]...)
		return out
	}
	return append(out, t.buf...)
}
