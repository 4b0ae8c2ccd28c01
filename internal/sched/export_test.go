package sched

import (
	"sort"

	"fractal/internal/graph"
)

// What the external tests of this package (FuzzJobSpec) reach inside it.

// EncodeStepStart is the body of the step start a master sends a worker
// for step 0 of spec's job.
func EncodeStepStart(spec JobSpec) []byte {
	return encode(stepStartMsg{attemptKey: attemptKey{Job: 1}, Workers: []peerAddr{{Worker: 0}}, Spec: specToWire(spec, nil)})
}

// RegisteredApps returns the names RegisterApp installed, sorted.
func RegisteredApps() []string {
	appsMu.RLock()
	defer appsMu.RUnlock()
	names := make([]string, 0, len(apps))
	for n := range apps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InstallSpec is a worker's side of RunSpec: it decodes body as a step
// start (decodeErr is then the decoder's error) and installs the job it
// carries with app in place of the spec's own app, over g whatever graph
// path the spec names.
func InstallSpec(body []byte, app string, g *graph.Graph) (decodeErr, err error) {
	var m stepStartMsg
	if err := decode(body, &m); err != nil {
		return err, nil
	}
	m.Spec.App, m.Spec.Graph = app, g.Name()
	h := &remoteHost{}
	h.graphs.m = map[string]*graph.Graph{g.Name(): g}
	return nil, h.install(m.Spec)
}
