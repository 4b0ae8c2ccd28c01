package workload

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"fractal/internal/graph"
)

// textHash returns the SHA-256 of g's edge list, followed by its keyword
// sidecar when it has one.
func textHash(t *testing.T, g *graph.Graph) string {
	t.Helper()
	h := sha256.New()
	if err := graph.WriteEdgeList(h, g); err != nil {
		t.Fatal(err)
	}
	if g.HasKeywords() {
		if err := graph.WriteKeywords(h, g); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratorsDeterministicAcrossRuns builds each generator twice with
// the same seed and pins both to the SHA-256 of the text the generator
// wrote when the hashes were recorded: the same graph on every run and on
// every commit, so a changed rng stream fails as surely as nondeterminism.
// Dataset.Graph caches, so the generators are called directly — the point
// is regeneration, the path `fractal-gen` takes on every invocation. The
// Barabási–Albert generator once leaked map iteration order into its
// attachment urn, silently producing a different graph (and different
// clique counts) on every run of the same seed.
func TestGeneratorsDeterministicAcrossRuns(t *testing.T) {
	gens := map[string]struct {
		mk   func() *graph.Graph
		want string
	}{
		"erdos-renyi": {func() *graph.Graph { return ErdosRenyi("er", 500, 2000, 3, 7) }, "b5ac3772aa50409f36c353371032aca08eeb141154768385579481a52fc14090"},
		"barabasi-albert": {func() *graph.Graph {
			return BarabasiAlbert("ba", 2000, 12, 1, 105)
		}, "785947bf1c87365ed7527935600587411c8624cd32236a6308fa67d90292af00"},
		"barabasi-albert-capped": {func() *graph.Graph {
			return BarabasiAlbertCapped("bac", 2000, 3, 80, 40, 103)
		}, "c332fc2906d451f06b2a560e93316be8e208584b27c8338a3ccba083da855bb7"},
		"community": {func() *graph.Graph {
			return Community("com", 20, 30, 8, 1.2, 29, 101)
		}, "ed5ef7cabef51e774fd0e6cf15a6c55cdab4a73172d88f8338d33a1051d816ac"},
		"knowledge-graph": {func() *graph.Graph {
			return KnowledgeGraph("kg", 800, 1000, 40, 300, 104)
		}, "19f18157e8ba89f6f3b44587ec179c70662e2d64578d6d18015e3f207b35c9cf"},
		"skew-labels": {func() *graph.Graph {
			return SkewLabels(ErdosRenyi("sk", 300, 900, 1, 5), 37, 202)
		}, "a1af4390833ac4d7d1d8f137b605bb2df7b5558818cc2582d657767876a16f89"},
	}
	for name, gen := range gens {
		gen := gen
		t.Run(name, func(t *testing.T) {
			for run := 1; run <= 2; run++ {
				if got := textHash(t, gen.mk()); got != gen.want {
					t.Fatalf("run %d: text sha256 %s, want %s", run, got, gen.want)
				}
			}
		})
	}
}
