package apps

import (
	"testing"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/workload"
)

// Plan-engine vs canonical-check benchmarks (make bench-plan); the
// canonical-check rows run the test-side oracles of oracle_test.go. The graphs
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
	benchMotifsOn(b, workload.BarabasiAlbert("bench-plan-ba", 400, 6, 1, 31), k, engine)
}

func benchMotifsOn(b *testing.B, raw *graph.Graph, k int, engine string) {
	benchMotifsWith(b, raw, func(fc *fractal.Context, g *fractal.Graph) (MotifCounts, *fractal.Result, error) {
		return Motifs(bg, fc, g, k, engine)
	})
}

func benchMotifsWith(b *testing.B, raw *graph.Graph, run func(*fractal.Context, *fractal.Graph) (MotifCounts, *fractal.Result, error)) {
	ctx := benchCtx(b)
	g := ctx.FromGraph(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := run(ctx, g)
		if err != nil {
			b.Fatal(err)
		}
		if m.Total() == 0 {
			b.Fatal("no motifs counted")
		}
	}
}

func BenchmarkMotifsPlan(b *testing.B) { benchMotifs(b, 4, EnginePlan) }

func BenchmarkMotifsCanon(b *testing.B) {
	benchMotifsWith(b, workload.BarabasiAlbert("bench-plan-ba", 400, 6, 1, 31), func(fc *fractal.Context, g *fractal.Graph) (MotifCounts, *fractal.Result, error) {
		return motifsOracle(fc, g, 4)
	})
}

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
