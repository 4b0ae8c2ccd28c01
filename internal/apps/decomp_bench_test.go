package apps

import (
	"testing"

	"fractal/internal/workload"
)

// Decomposition-engine vs plan-engine benchmarks (make bench-decomp), on the
// same BA graph as the bench-plan suite so the engines' columns line up in
// EXPERIMENTS.md. At k=4 and k=5 the auto engine sweeps every decomposable
// pattern (TestRunsExecuteTheirDecision asserts it), replacing their
// enumeration with one shared local-count sweep; counts are bit-identical
// to the pure plan fleet's.

func BenchmarkMotifsAuto(b *testing.B) { benchMotifs(b, 4, EngineAuto) }

func BenchmarkMotifsPlanK5(b *testing.B) { benchMotifs(b, 5, EnginePlan) }
func BenchmarkMotifsAutoK5(b *testing.B) { benchMotifs(b, 5, EngineAuto) }

// At k=6 the auto fleet sweeps 14 of 112 classes. The plan fleet takes ~40 s
// a job on this sparser graph (BA(1200, 2)), so these rows stay out of
// make bench-decomp; EXPERIMENTS.md records them.
func BenchmarkMotifsPlanK6(b *testing.B) { benchMotifsK6(b, EnginePlan) }
func BenchmarkMotifsAutoK6(b *testing.B) { benchMotifsK6(b, EngineAuto) }

func benchMotifsK6(b *testing.B, engine string) {
	benchMotifsOn(b, workload.BarabasiAlbert("bench-k6-ba", 1200, 2, 1, 31), 6, engine)
}
