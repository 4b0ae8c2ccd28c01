package apps

import "testing"

// Decomposition-engine vs plan-engine benchmarks (make bench-decomp), on the
// same BA graph as the bench-plan suite so the engines' columns line up in
// EXPERIMENTS.md. At k=4 and k=5 the auto engine sweeps every decomposable
// pattern (TestMotifsDecompMatchesPlanAndCanon asserts it), replacing their
// enumeration with one shared local-count sweep; counts are bit-identical
// to the pure plan fleet's.

func BenchmarkMotifsAuto(b *testing.B) { benchMotifs(b, 4, EngineAuto) }

func BenchmarkMotifsPlanK5(b *testing.B) { benchMotifs(b, 5, EnginePlan) }
func BenchmarkMotifsAutoK5(b *testing.B) { benchMotifs(b, 5, EngineAuto) }
