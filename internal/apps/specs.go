// The kernels. Motifs, FSM and query each have exactly one workflow
// definition: a spec builder registered under the application's name,
// composed against fractal.NewBuildGraph — no Context — and deterministic,
// so the same spec and graph yield the identical workflow and step list in
// every process. Each application's one driver (Motifs, FSM, Query, and
// Cliques, which submits the query spec with Clique(k)) executes its
// Decision (decision.go) and submits its specs through Graph.RunSpec, which builds the job against the
// graph in memory on an in-process context and ships the spec by graph path
// on a WithListenAddr master: the same code runs in both deployments. The
// decomposition sweep the motifs and query drivers mix in is a spec too,
// registered by the root package next to Graph.EvalDecomps, so a mixed
// motif fleet runs on a master as it does in process.
//
// FSM's graph reduction (Section 4.3) is part of its spec: a level's builder
// derives the frequent-edge graph from the graph and the support, in every
// process alike. What has no spec form — the KClist enumerator, keyword
// search and its reduction — is rejected on a master
// context with a *fractal.ConfigError instead of being ignored.
package apps

import (
	"fmt"
	"strconv"

	"fractal"
	"fractal/internal/sched"
	"fractal/internal/step"
)

// Registered application names.
const (
	AppMotifs = "motifs"
	AppFSM    = "fsm"
	AppQuery  = "query"
)

func init() {
	fractal.RegisterApp(AppMotifs, motifsBuilder{})
	fractal.RegisterApp(AppFSM, fsmBuilder{})
	fractal.RegisterApp(AppQuery, queryBuilder{})
}

// The engine argument of Motifs and Query — the values of cmd/fractal's
// -engine flag.
const (
	// EngineAuto lets the cost model choose between plan enumeration and
	// the decomposition sweep.
	EngineAuto = "auto"
	// EnginePlan enumerates compiled symmetry-broken plans only: the
	// reference enumeration.
	EnginePlan = "plan"
)

// specInt parses a required integer argument of a spec, which must lie in
// [lo, hi]: arguments arrive off the wire, and a workflow or pattern sized
// by one must not outgrow what the kernel supports.
func specInt(spec fractal.JobSpec, key string, lo, hi int) (int, error) {
	s := spec.Arg(key)
	if s == "" {
		return 0, fmt.Errorf("apps: spec %q requires argument %q", spec.App, key)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("apps: spec %q argument %q: %w", spec.App, key, err)
	}
	if n < lo || n > hi {
		return 0, &ArgError{Arg: fmt.Sprintf("spec %q argument %q", spec.App, key), Got: n, Min: lo, Max: hi}
	}
	return n, nil
}

// countJob exports f as a job that counts the embeddings reaching the end of
// its workflow (step.CountP, the mechanism behind Fractoid.CountCtx).
func countJob(f *fractal.Fractoid) (sched.Job, error) {
	job, err := f.Job()
	job.Workflow = append(job.Workflow, step.CountP())
	return job, err
}
