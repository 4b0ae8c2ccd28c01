package pattern

import (
	"fmt"
	"strings"
)

// This file implements the gSpan minimum DFS code (Yan & Han, ICDM'02) —
// the canonical labeling algorithm the paper adopts for ρ(S) (Section 2.1).
// The package's canonicalization (canon.go) uses a minimum adjacency code,
// which induces the same equivalence classes. No production code needs a
// second labelling, so this one lives test-side as the independent oracle
// dfscode_test.go cross-validates canon.go against.
//
// A DFS code is the edge sequence of a depth-first traversal, each edge
// written as (i, j, l_i, l_e, l_j) with i, j discovery indices. Codes are
// compared first by the gSpan edge order (forward/backward structure), then
// lexically by labels; the canonical code is the minimum over all DFS
// traversals.

// DFSEdge is one quintuple of a DFS code.
type DFSEdge struct {
	From, To                      int // discovery indices
	FromLabel, EdgeLabel, ToLabel Label32
}

// Label32 narrows graph labels for compact comparison.
type Label32 = int32

// less orders DFS edges by the gSpan total order.
func (a DFSEdge) less(b DFSEdge) bool {
	af, bf := a.From < a.To, b.From < b.To // forward?
	switch {
	case !af && bf: // backward < forward
		return true
	case af && !bf:
		return false
	case !af && !bf: // both backward: smaller To first
		if a.To != b.To {
			return a.To < b.To
		}
	default: // both forward: larger From first, then smaller To
		if a.From != b.From {
			return a.From > b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
	}
	if a.FromLabel != b.FromLabel {
		return a.FromLabel < b.FromLabel
	}
	if a.EdgeLabel != b.EdgeLabel {
		return a.EdgeLabel < b.EdgeLabel
	}
	return a.ToLabel < b.ToLabel
}

// compareCodes lexicographically compares edge sequences under less.
func compareCodes(a, b []DFSEdge) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].less(b[i]) {
			return -1
		}
		if b[i].less(a[i]) {
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// MinDFSCode computes the canonical (minimum) DFS code of p. Patterns are
// tiny, so the search enumerates rightmost-path DFS extensions with
// branch-and-bound against the best code found so far.
func MinDFSCode(p *Pattern) []DFSEdge {
	n := p.NumVertices()
	if n == 0 || p.NumEdges() == 0 {
		return nil
	}
	var (
		best     []DFSEdge
		cur      []DFSEdge
		disc     = make([]int, n) // vertex -> discovery index, -1 undiscovered
		order    []int            // discovery order: order[idx] = vertex
		usedEdge = make(map[[2]int]bool)
	)
	for i := range disc {
		disc[i] = -1
	}
	edgeKey := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}

	var rec func()
	rec = func() {
		if len(cur) == p.NumEdges() {
			if best == nil || compareCodes(cur, best) < 0 {
				best = append(best[:0:0], cur...)
			}
			return
		}
		// gSpan growth: backward edges from the rightmost vertex first,
		// then forward edges from vertices on the rightmost path. For
		// minimality over small patterns we enumerate all valid DFS
		// extensions: backward edges from the rightmost vertex, and forward
		// edges from any discovered vertex on the rightmost path.
		rm := order[len(order)-1]
		// Backward edges (rightmost vertex to an earlier vertex).
		for _, u := range order[:len(order)-1] {
			if !p.HasEdge(rm, u) || usedEdge[edgeKey(rm, u)] {
				continue
			}
			e := DFSEdge{
				From: disc[rm], To: disc[u],
				FromLabel: int32(p.VertexLabel(rm)),
				EdgeLabel: int32(p.EdgeLabel(rm, u)),
				ToLabel:   int32(p.VertexLabel(u)),
			}
			if !boundOK(e, cur, best) {
				continue
			}
			usedEdge[edgeKey(rm, u)] = true
			cur = append(cur, e)
			rec()
			cur = cur[:len(cur)-1]
			usedEdge[edgeKey(rm, u)] = false
		}
		// Forward edges from rightmost-path vertices to new vertices. The
		// rightmost path of a DFS tree over `order` is implicit; over small
		// patterns we conservatively allow forward growth from every
		// discovered vertex, which enumerates a superset of DFS codes —
		// the minimum is still the gSpan minimum because every valid DFS
		// code is included.
		for oi := len(order) - 1; oi >= 0; oi-- {
			u := order[oi]
			for v := 0; v < n; v++ {
				if disc[v] >= 0 || !p.HasEdge(u, v) || usedEdge[edgeKey(u, v)] {
					continue
				}
				e := DFSEdge{
					From: disc[u], To: len(order),
					FromLabel: int32(p.VertexLabel(u)),
					EdgeLabel: int32(p.EdgeLabel(u, v)),
					ToLabel:   int32(p.VertexLabel(v)),
				}
				if !boundOK(e, cur, best) {
					continue
				}
				usedEdge[edgeKey(u, v)] = true
				disc[v] = len(order)
				order = append(order, v)
				cur = append(cur, e)
				rec()
				cur = cur[:len(cur)-1]
				order = order[:len(order)-1]
				disc[v] = -1
				usedEdge[edgeKey(u, v)] = false
			}
		}
	}

	for v := 0; v < n; v++ {
		disc[v] = 0
		order = append(order[:0], v)
		rec()
		disc[v] = -1
	}
	return best
}

// boundOK prunes a branch whose next edge already exceeds the best code.
// Pruning is only sound when the current prefix exactly equals the best
// code's prefix; a strictly smaller prefix must explore every completion.
func boundOK(e DFSEdge, cur, best []DFSEdge) bool {
	if best == nil || len(cur) >= len(best) {
		return true
	}
	for i := range cur {
		if cur[i] != best[i] {
			return true // prefix already differs: no bound applies
		}
	}
	return !best[len(cur)].less(e)
}

// DFSCodeString renders a DFS code as a compact string key.
func DFSCodeString(code []DFSEdge) string {
	var sb strings.Builder
	for _, e := range code {
		fmt.Fprintf(&sb, "(%d,%d,%d,%d,%d)", e.From, e.To, e.FromLabel, e.EdgeLabel, e.ToLabel)
	}
	return sb.String()
}
