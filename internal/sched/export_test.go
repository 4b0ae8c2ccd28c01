package sched

import (
	"sort"

	"fractal/internal/graph"
)

// What the external tests of this package (FuzzJobSpec) reach inside it.

// EncodeJobSpec is the body of the job-spec message RunSpec sends for spec.
func EncodeJobSpec(spec JobSpec) []byte { return encode(specToMsg(0, spec, nil)) }

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

// InstallSpec is a worker's side of RunSpec: it decodes body as a job-spec
// message (decodeErr is then the decoder's error) and installs it with app
// in place of the message's own app, over g whatever graph path the message
// names.
func InstallSpec(body []byte, app string, g *graph.Graph) (decodeErr, err error) {
	var m jobSpecMsg
	if err := decode(body, &m); err != nil {
		return err, nil
	}
	m.App, m.Graph = app, g.Name()
	h := &remoteHost{}
	h.graphs.m = map[string]*graph.Graph{g.Name(): g}
	return nil, h.install(m)
}
