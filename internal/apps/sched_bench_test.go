package apps

import (
	"fmt"
	"testing"

	"fractal"
	"fractal/internal/workload"
)

// BenchmarkSchedMotifs5 is BenchmarkMotifsPlanK5 on the repository
// benchmark's motifs5_sl analog (a 45×50 single-label community graph), on
// one core and on two: plan enumeration is cheap per subgraph there, so what
// the DFS loop, the enumerator stack and stealing cost on top of the kernels
// shows. `make prof-sched` profiles it and prints the scheduler's share;
// `make bench-sched` reports its time and allocations.
func BenchmarkSchedMotifs5(b *testing.B) {
	graph := workload.Community("community_sl", 45, 50, 9, 1.2, 1, 1)
	for _, cores := range []int{1, 2} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			ctx, err := fractal.NewContext(fractal.WithCores(cores))
			if err != nil {
				b.Fatal(err)
			}
			defer ctx.Close()
			g := ctx.FromGraph(graph)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, _, err := Motifs(bg, ctx, g, 5, EnginePlan)
				if err != nil {
					b.Fatal(err)
				}
				if m.Total() == 0 {
					b.Fatal("no motifs counted")
				}
			}
		})
	}
}
