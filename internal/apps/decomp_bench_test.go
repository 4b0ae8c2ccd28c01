package apps

import "testing"

// Decomposition-engine vs plan-engine benchmarks (make bench-decomp), on the
// same BA graph as the bench-plan suite so the three engines' columns line
// up in EXPERIMENTS.md. The mixed fleet replaces the decomposable patterns'
// enumeration with one shared local-count sweep; the acceptance criterion is
// >= 3x wall-time over the pure plan fleet at k=4 with bit-identical counts
// (pinned functionally by TestMotifsDecompMatchesPlanAndCanon).

func BenchmarkMotifsDecomp(b *testing.B) { benchMotifs(b, 4, EngineDecomp) }
func BenchmarkMotifsAuto(b *testing.B)   { benchMotifs(b, 4, EngineAuto) }

func BenchmarkMotifsPlanK5(b *testing.B)   { benchMotifs(b, 5, EnginePlan) }
func BenchmarkMotifsDecompK5(b *testing.B) { benchMotifs(b, 5, EngineDecomp) }
