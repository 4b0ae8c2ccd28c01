package pattern

import (
	"bytes"
	"slices"
)

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
// subgraph.Embedding.Class, which runs it once per distinct quick pattern on
// a Labeller of its own.
func (p *Pattern) Canonical() Canon {
	var l Labeller // dropped on return: its perm is the caller's to keep
	code, perm := l.search(p)
	return Canon{Code: string(code), Perm: perm}
}

// Labeller runs canonical-labelling searches on storage it keeps: a search
// allocates nothing once its buffers have grown to the widest pattern seen,
// and classifying through one (Classify, ClassifyEmbedding, EverySubClass)
// allocates only what the process-wide class table keeps. The zero value is
// ready; a Labeller has one user at a time — an embedding's class memo owns
// one per core.
type Labeller struct {
	// Searches counts the labelling searches run so far.
	Searches int64

	p         *Pattern // the pattern under search
	best, cur []byte   // minimum code so far, code of the ordering under construction
	row       []byte
	slot      []int // canonical position -> vertex, ordering under construction
	bestSlot  []int // ... of best
	perm      []int // vertex -> canonical position of the last search
	found     bool  // best holds a complete code
	used      uint32
	scratch   PBuilder // pattern under construction (ClassifyEmbedding, EverySubClass)
}

// search returns p's canonical code and permutation, both in the labeller's
// own storage: valid until its next search.
func (l *Labeller) search(p *Pattern) (code []byte, perm []int) {
	l.Searches++
	n := p.n
	l.p, l.found, l.used = p, false, 0
	// Sized once to what the search will write: a one-shot labeller
	// (Canonical) allocates each buffer exactly, a kept one stops growing at
	// the widest pattern it has seen.
	l.cur = append(slices.Grow(l.cur[:0], codeLen(n)), byte(n))
	l.best = slices.Grow(l.best[:0], codeLen(n))
	l.row = slices.Grow(l.row[:0], rowLen(max(n-1, 0)))
	l.slot = slices.Grow(l.slot[:0], n)[:n]
	l.bestSlot = slices.Grow(l.bestSlot[:0], n)[:n]
	l.perm = slices.Grow(l.perm[:0], n)[:n]
	if n == 0 {
		return l.cur, l.perm
	}
	l.place(0, true)
	for pos, v := range l.bestSlot {
		l.perm[v] = pos
	}
	return l.best, l.perm
}

// place tries every unused vertex at canonical position i. tight says that
// the rows placed so far equal best's.
func (l *Labeller) place(i int, tight bool) {
	p, n := l.p, l.p.n
	if i == n {
		// best may have improved since the tight flags on this path were
		// computed, so compare in full before replacing.
		if !l.found || bytes.Compare(l.cur, l.best) < 0 {
			l.best = append(l.best[:0], l.cur...)
			copy(l.bestSlot, l.slot)
			l.found = true
		}
		return
	}
	off := len(l.cur)
	for v := 0; v < n; v++ {
		if l.used&(1<<uint(v)) != 0 {
			continue
		}
		// Encode row: vertex label then adjacency to placed vertices.
		row := AppendInt(l.row[:0], int32(p.vlabels[v]))
		for j := 0; j < i; j++ {
			u := l.slot[j]
			if p.HasEdge(v, u) {
				row = AppendInt(append(row, edgePresent), int32(p.EdgeLabel(v, u)))
			} else {
				row = AppendInt(append(row, edgeAbsent), int32(NoLabel))
			}
		}
		l.row = row
		childTight := tight
		if l.found {
			cmp := bytes.Compare(row, l.best[off:off+len(row)])
			if tight && cmp > 0 {
				continue // this branch can no longer reach the minimum
			}
			childTight = tight && cmp == 0
		}
		l.cur = append(l.cur, row...)
		l.slot[i] = v
		l.used |= 1 << uint(v)
		l.place(i+1, childTight)
		l.used &^= 1 << uint(v)
		l.cur = l.cur[:off]
	}
}
