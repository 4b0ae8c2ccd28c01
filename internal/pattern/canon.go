package pattern

import "bytes"

// This file implements canonical labeling: the ρ(S) function of Section 2.1.
// The paper uses the gSpan minimum-DFS-code algorithm; any total order over
// isomorphism classes works, and we use the minimum adjacency code under all
// vertex orderings, found by branch-and-bound. Edges are encoded "present
// sorts first" so that connected orderings are explored early, which makes
// the bound tight almost immediately for the small, dense patterns GPM
// produces.

// Canon is the canonical form of a Pattern: a code string usable as a map
// key (equal iff isomorphic) and the permutation that realizes it.
type Canon struct {
	// Code is the canonical byte string of the pattern.
	Code string
	// Perm maps each original pattern vertex to its canonical position.
	Perm []int
}

const (
	edgePresent byte = 0 // present sorts before absent: prefer dense prefixes
	edgeAbsent  byte = 1
)

// rowLen returns the encoded length of the row for canonical position i.
func rowLen(i int) int { return 4 + i*5 }

// codeLen returns the total encoded length for an n-vertex pattern.
func codeLen(n int) int {
	total := 1
	for i := 0; i < n; i++ {
		total += rowLen(i)
	}
	return total
}

// Canonical computes the canonical form of p. The computation is exponential
// in the worst case but patterns are tiny (the paper mines subgraphs of at
// most ~7 vertices); per-embedding callers go through
// subgraph.Embedding.Class, which runs it once per distinct quick pattern.
func (p *Pattern) Canonical() Canon {
	n := p.n
	if n == 0 {
		return Canon{Code: string([]byte{0}), Perm: []int{}}
	}
	var (
		best     []byte
		bestSlot = make([]int, n)
		cur      = make([]byte, 1, codeLen(n))
		slot     = make([]int, n) // canonical position -> original vertex
		used     uint32
		row      = make([]byte, 0, rowLen(n-1))
	)
	cur[0] = byte(n)

	var rec func(i int, tight bool)
	rec = func(i int, tight bool) {
		if i == n {
			// best may have improved since the tight flags on this path were
			// computed, so compare in full before replacing.
			if best == nil || bytes.Compare(cur, best) < 0 {
				best = append(best[:0], cur...)
				copy(bestSlot, slot)
			}
			return
		}
		off := len(cur)
		for v := 0; v < n; v++ {
			if used&(1<<uint(v)) != 0 {
				continue
			}
			// Encode row: vertex label then adjacency to placed vertices.
			row = row[:0]
			row = AppendInt(row, int32(p.vlabels[v]))
			for j := 0; j < i; j++ {
				u := slot[j]
				if p.HasEdge(v, u) {
					row = append(row, edgePresent)
					row = AppendInt(row, int32(p.EdgeLabel(v, u)))
				} else {
					row = append(row, edgeAbsent)
					row = AppendInt(row, int32(NoLabel))
				}
			}
			childTight := tight
			if best != nil {
				cmp := bytes.Compare(row, best[off:off+len(row)])
				if tight && cmp > 0 {
					continue // this branch can no longer reach the minimum
				}
				childTight = tight && cmp == 0
			}
			cur = append(cur, row...)
			slot[i] = v
			used |= 1 << uint(v)
			rec(i+1, childTight)
			used &^= 1 << uint(v)
			cur = cur[:off]
		}
	}
	rec(0, true)

	perm := make([]int, n)
	for pos, v := range bestSlot {
		perm[v] = pos
	}
	return Canon{Code: string(best), Perm: perm}
}
