package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the harness: a phase, a child process or a
// probe call. Parent is the span that caused it (0: none); every span of a
// workload carries the workload's name as its identifier.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
	// SelfS is the span's duration minus the part of it its children
	// cover; filled in when the trace is written.
	SelfS float64 `json:"self_s"`
}

// tracer keeps spans in memory until the run ends. Child processes of a
// distributed job start and end on different goroutines, hence the lock.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setWorkload(name string) {
	t.mu.Lock()
	t.workload = name
	t.mu.Unlock()
}

func (t *tracer) begin(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartS: time.Since(t.t0).Seconds()})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].EndS = time.Since(t.t0).Seconds()
	t.mu.Unlock()
}

// in runs f inside a span and returns how long it took.
func (t *tracer) in(parent int, name string, f func(id int)) float64 {
	id := t.begin(parent, name)
	f(id)
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].EndS - t.spans[id-1].StartS
}

// withSelfTimes returns the spans with SelfS filled in: duration minus the
// union of the children's intervals (children of a distributed job overlap,
// so their durations cannot simply be summed).
func withSelfTimes(spans []span) []span {
	out := append([]span(nil), spans...)
	children := map[int][]span{}
	for _, s := range out {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range out {
		kids := children[out[i].ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartS < kids[b].StartS })
		covered, edge := 0.0, out[i].StartS
		for _, k := range kids {
			lo, hi := max(k.StartS, edge), min(k.EndS, out[i].EndS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i].SelfS = out[i].EndS - out[i].StartS - covered
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := withSelfTimes(t.spans)
	t.mu.Unlock()
	data, err := json.MarshalIndent(map[string]any{"unit": "seconds since harness start", "spans": spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
