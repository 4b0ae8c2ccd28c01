package agg

import (
	"math"
	"testing"

	"fractal/internal/graph"
)

// Sentinel is the vertex PoisonReturned writes into every returned array:
// no test graph has a vertex of that id.
const Sentinel = graph.VertexID(math.MaxInt32)

// PoisonReturned makes every array returned to the domain pool fill with
// Sentinel, until the test ends: a value still read after its arrays went
// back reads sentinels instead of its vertices. Call it before starting what
// returns arrays, so that its cleanup runs after theirs.
func PoisonReturned(t testing.TB) {
	returned = func(d []graph.VertexID) {
		for i := range d {
			d[i] = Sentinel
		}
	}
	t.Cleanup(func() { returned = nil })
}
