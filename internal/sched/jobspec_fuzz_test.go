package sched_test

import (
	"errors"
	"testing"

	"fractal"
	_ "fractal/internal/apps" // registers motifs, fsm and query
	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/sched"
	"fractal/internal/wire"
	"fractal/internal/workload"
)

// FuzzJobSpec is FuzzDecodeMessage's next layer: a job-spec message that
// decodes is handed to every registered builder — the message's arguments,
// any app's name — and materialized the way a worker does, over a
// uniform-label and a labeled graph. Arguments arrive off the wire (the
// decomposition sweep's and the query's carry whole patterns), so whatever they hold must
// give a job or an error, never a panic or a runaway allocation.
func FuzzJobSpec(f *testing.F) {
	var sweep wire.Writer
	sweep.Count(2)
	sweep.B = pattern.Star(4).AppendBinary(sweep.B)
	sweep.B = pattern.Bowtie().AppendBinary(sweep.B)
	for _, args := range []map[string]string{
		{"k": "3"},
		{"k": "4", "pattern": "2"},
		{"level": "2", "support": "3"},
		{"patterns": string(sweep.B)},
		{"pattern": string(pattern.Cycle(4).AppendBinary(nil))},
		{"k": "40", "level": "-1", "patterns": "\x01"},
	} {
		f.Add(sched.EncodeJobSpec(fractal.JobSpec{App: "any", Graph: "any", Args: args}))
	}
	graphs := []*graph.Graph{
		workload.ErdosRenyi("fuzz-spec-sl", 12, 24, 1, 1),
		workload.ErdosRenyi("fuzz-spec-ml", 12, 24, 2, 2),
	}
	apps := sched.RegisteredApps()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, app := range apps {
			for _, g := range graphs {
				decodeErr, _ := sched.InstallSpec(body, app, g)
				var werr *wire.Error
				if decodeErr != nil && !errors.As(decodeErr, &werr) {
					t.Fatalf("decode error %v is not a *wire.Error", decodeErr)
				}
			}
		}
	})
}
