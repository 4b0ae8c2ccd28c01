package apps

import (
	"testing"

	"fractal"
	"fractal/internal/workload"
)

// Plan-engine vs canonical-engine benchmarks (make bench-plan). The graphs
// are sized so a full -benchtime pass stays in the hundreds of milliseconds
// per iteration; EXPERIMENTS.md records the measured extension-cost and
// wall-clock gaps on the larger bench-micro and pin graphs.

func benchCtx(b *testing.B) *fractal.Context {
	b.Helper()
	ctx, err := fractal.NewContext(fractal.WithCores(2))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ctx.Close)
	return ctx
}

func benchMotifs(b *testing.B, k int, engine string) {
	ctx := benchCtx(b)
	g := ctx.FromGraph(workload.BarabasiAlbert("bench-plan-ba", 400, 6, 1, 31))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := Motifs(bg, ctx, g, k, engine)
		if err != nil {
			b.Fatal(err)
		}
		if m.Total() == 0 {
			b.Fatal("no motifs counted")
		}
	}
}

func BenchmarkMotifsPlan(b *testing.B)  { benchMotifs(b, 4, EnginePlan) }
func BenchmarkMotifsCanon(b *testing.B) { benchMotifs(b, 4, EngineCanon) }

func benchCliques(b *testing.B, run func(*fractal.Context, *fractal.Graph, int) (int64, *fractal.Result, error)) {
	ctx := benchCtx(b)
	g := ctx.FromGraph(workload.BarabasiAlbert("bench-plan-bac", 400, 8, 1, 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, err := run(ctx, g, 4)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no cliques counted")
		}
	}
}

func BenchmarkCliquesPlan(b *testing.B) {
	benchCliques(b, func(fc *fractal.Context, g *fractal.Graph, k int) (int64, *fractal.Result, error) {
		return Cliques(bg, fc, g, k)
	})
}

// BenchmarkCliquesKClist is Listing 7's custom enumerator on the same graph:
// allocs/op is per job and must not scale with the pushes.
func BenchmarkCliquesKClist(b *testing.B) {
	benchCliques(b, func(fc *fractal.Context, g *fractal.Graph, k int) (int64, *fractal.Result, error) {
		return CliquesKClist(bg, fc, g, k)
	})
}

func BenchmarkCliquesCanon(b *testing.B) {
	benchCliques(b, func(_ *fractal.Context, g *fractal.Graph, k int) (int64, *fractal.Result, error) {
		return cliquesOracle(g, k)
	})
}
