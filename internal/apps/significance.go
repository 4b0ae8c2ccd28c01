package apps

import (
	"context"
	"math"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/workload"
)

// Motif significance profiling (Milo et al., Science 2002 — the canonical
// motivation the paper cites for motif counting in bioinformatics): a motif
// is significant when it is over-represented compared to random graphs with
// matching size. Each null sample is an Erdős–Rényi graph with the same
// |V| and |E|; the z-score of a motif is (count − mean_null) / stddev_null.

// MotifSignificance is one motif's profile.
type MotifSignificance struct {
	Pat      *fractal.Pattern
	Count    int64   // in the input graph
	NullMean float64 // across the random ensemble
	NullStd  float64
	ZScore   float64
}

// SignificanceProfile computes z-scores of all k-vertex motifs of g against
// an ensemble of `samples` random graphs (deterministic under seed).
func SignificanceProfile(ctx context.Context, fc *fractal.Context, g *fractal.Graph, k, samples int, seed int64) (map[string]*MotifSignificance, error) {
	observed, _, err := Motifs(ctx, fc, g, k, EngineAuto)
	if err != nil {
		return nil, err
	}
	out := map[string]*MotifSignificance{}
	for code, pc := range observed {
		out[code] = &MotifSignificance{Pat: pc.Pat, Count: pc.Count}
	}

	s := g.Stats()
	nullCounts := map[string][]float64{}
	for i := 0; i < samples; i++ {
		// ER topology with g's exact vertex-label assignment: the null
		// model randomizes edges while preserving the label multiset.
		rg := workload.ErdosRenyi("null", s.V, s.E, 1, seed+int64(i))
		nb := graph.NewBuilder("null")
		raw := g.Raw()
		for v := 0; v < rg.NumVertices(); v++ {
			nb.AddVertex(raw.VertexLabels(graph.VertexID(v))...)
		}
		for id := 0; id < rg.NumEdges(); id++ {
			e := rg.EdgeByID(graph.EdgeID(id))
			nb.MustAddEdge(e.Src, e.Dst)
		}
		nm, _, err := Motifs(ctx, fc, fc.FromGraph(nb.Build()), k, EngineAuto)
		if err != nil {
			return nil, err
		}
		for code, pc := range nm {
			nullCounts[code] = append(nullCounts[code], float64(pc.Count))
			if _, ok := out[code]; !ok {
				out[code] = &MotifSignificance{Pat: pc.Pat}
			}
		}
	}
	for code, sig := range out {
		counts := nullCounts[code]
		// Absent classes in some samples count as zero.
		for len(counts) < samples {
			counts = append(counts, 0)
		}
		var mean float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		var varsum float64
		for _, c := range counts {
			varsum += (c - mean) * (c - mean)
		}
		std := math.Sqrt(varsum / float64(len(counts)))
		sig.NullMean = mean
		sig.NullStd = std
		switch {
		case std > 0:
			sig.ZScore = (float64(sig.Count) - mean) / std
		case float64(sig.Count) != mean:
			sig.ZScore = math.Inf(sign(float64(sig.Count) - mean))
		}
	}
	return out, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
