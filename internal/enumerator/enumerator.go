// Package enumerator implements the SubgraphEnumerator abstraction of
// Figure 7 of the Fractal paper and the per-core enumerator stack that a
// core's depth-first loop runs on (Section 4.1) and that the work-stealing
// mechanism of Section 4.2 draws from.
//
// A Stack belongs to one goroutine, the core that runs the DFS loop. Nothing
// in this package is synchronized: pushing a level, consuming an extension
// and popping are plain loads and stores, and the words the stack pins are a
// running count the owner adjusts as it goes, so asking for them costs a
// field read. Work leaves a stack only through its owner: a thief asks, and
// the owner carves the shallowest unconsumed extension off its own stack with
// StealShallowest and hands the resulting prefix over (DESIGN.md §4, "Work
// stealing: private stacks, granted steals"). The paper's Figure 7 makes
// extension consumption a critical section shared with thieves; here there is
// no second party, so there is no critical section.
//
// Allocation discipline. A level is a value slot indexed by depth that owns
// its prefix and extension buffers. PushCopy copies into the slot's buffers
// and Pop merely lowers the depth, so after the first descent to a depth the
// steady-state loop allocates nothing: depth is bounded by the number of
// Extend primitives of the step, and the buffers grow to the largest level
// seen at their depth. The one allocation is the prefix StealShallowest
// returns, which the thief keeps.
package enumerator

import (
	"fmt"
	"math"

	"fractal/internal/subgraph"
)

// Word re-exports the extension unit for convenience.
type Word = subgraph.Word

// Enumerator is one level of a Stack: an enumeration prefix and its remaining
// extensions. A pointer to a level is valid until the next push on its stack.
type Enumerator struct {
	s      *Stack
	prefix []Word
	exts   []Word
	next   int

	// The depth-0 level iterates an implicit strided slice of the initial
	// domain instead of a materialized extension list.
	root   bool
	cursor int32
	limit  int32
	stride int32
}

// Prefix returns the enumeration prefix.
func (e *Enumerator) Prefix() []Word { return e.prefix }

// Depth returns the number of words in the prefix.
func (e *Enumerator) Depth() int { return len(e.prefix) }

// Take consumes and returns the next extension. ok is false when the level is
// exhausted.
func (e *Enumerator) Take() (w Word, ok bool) {
	if e.root {
		if e.cursor >= e.limit {
			return 0, false
		}
		w = e.cursor
		e.cursor += e.stride
	} else {
		if e.next >= len(e.exts) {
			return 0, false
		}
		w = e.exts[e.next]
		e.next++
	}
	e.s.pending--
	return w, true
}

// Remaining returns the number of unconsumed extensions.
func (e *Enumerator) Remaining() int {
	if e.root {
		if e.cursor >= e.limit {
			return 0
		}
		return int((e.limit-e.cursor-1)/e.stride) + 1
	}
	return len(e.exts) - e.next
}

// Stack is the per-core stack of live enumerator levels, one per extension
// level (the depth-first state of Algorithm 1). The zero value is an empty
// stack. It must not be copied once used: levels point back at it.
type Stack struct {
	levels []Enumerator // slots; levels[:depth] are live
	depth  int
	// prefixes and pending count the prefix words and the unconsumed
	// extensions of the live levels: the words of state the stack pins
	// (Section 4.1, Table 2). peak is the largest sum seen since Clear.
	prefixes, pending, peak int64
}

// push makes the next slot live and returns it, with its buffers emptied.
func (s *Stack) push() *Enumerator {
	if s.depth == len(s.levels) {
		s.levels = append(s.levels, Enumerator{})
	}
	e := &s.levels[s.depth]
	s.depth++
	*e = Enumerator{s: s, prefix: e.prefix[:0], exts: e.exts[:0]}
	return e
}

// pushed books a freshly filled level.
func (s *Stack) pushed(e *Enumerator) *Enumerator {
	s.prefixes += int64(len(e.prefix))
	s.pending += int64(e.Remaining())
	s.peak = max(s.peak, s.prefixes+s.pending)
	return e
}

// PushRoot pushes the depth-0 level of a core: it yields the initial
// extension words {coreID, coreID+totalCores, ...} below domain, the
// on-the-fly partition of the input graph described in Section 4
// ("Scheduling and execution"). domain must fit in an int32 extension word;
// PushRoot panics instead of silently truncating it.
func (s *Stack) PushRoot(coreID, totalCores, domain int) *Enumerator {
	if domain < 0 || domain > math.MaxInt32 {
		panic(fmt.Sprintf("enumerator: initial domain %d does not fit int32 extension words", domain))
	}
	e := s.push()
	e.root, e.cursor, e.limit, e.stride = true, int32(coreID), int32(domain), int32(totalCores)
	return s.pushed(e)
}

// PushCopy pushes a level holding copies of prefix and exts in the slot's own
// buffers. The caller keeps ownership of both arguments.
func (s *Stack) PushCopy(prefix, exts []Word) *Enumerator {
	e := s.push()
	e.prefix = append(e.prefix, prefix...)
	e.exts = append(e.exts, exts...)
	return s.pushed(e)
}

// Pop removes the top level; its buffers stay with the slot. Popping an empty
// stack is a no-op.
func (s *Stack) Pop() {
	if s.depth == 0 {
		return
	}
	s.depth--
	e := &s.levels[s.depth]
	s.prefixes -= int64(len(e.prefix))
	s.pending -= int64(e.Remaining())
}

// Top returns the top level, or nil when empty.
func (s *Stack) Top() *Enumerator {
	if s.depth == 0 {
		return nil
	}
	return &s.levels[s.depth-1]
}

// Depth returns the number of live levels.
func (s *Stack) Depth() int { return s.depth }

// Clear drops all levels and forgets the peak (start of a step).
func (s *Stack) Clear() {
	s.depth, s.prefixes, s.pending, s.peak = 0, 0, 0, 0
}

// Abandon drops all levels and returns the number of unconsumed extensions
// discarded with them. A cancelled step calls this instead of Clear so the
// runtime can report how much enumeration work was left behind (a lower
// bound: each abandoned extension rooted an unexplored subtree).
func (s *Stack) Abandon() int64 {
	n := s.pending
	s.depth, s.prefixes, s.pending = 0, 0, 0
	return n
}

// StealShallowest is the owner's donate call: it consumes one extension of
// the shallowest level that still has one — the largest subtree the stack
// can give away — and returns that level's prefix plus the extension as a
// fresh slice for the thief to keep. This is the extend() of Figure 7
// applied on a thief's behalf.
func (s *Stack) StealShallowest() (stolen []Word, ok bool) {
	if s.pending == 0 {
		return nil, false
	}
	for i := range s.levels[:s.depth] {
		e := &s.levels[i]
		if w, ok := e.Take(); ok {
			stolen = make([]Word, len(e.prefix)+1)
			copy(stolen, e.prefix)
			stolen[len(e.prefix)] = w
			return stolen, true
		}
	}
	return nil, false
}

// Pending returns the number of unconsumed extensions across all levels.
func (s *Stack) Pending() int64 { return s.pending }

// HasWork reports whether any level has unconsumed extensions.
func (s *Stack) HasWork() bool { return s.pending > 0 }

// StateBytes is the live memory the stack pins: 4 bytes per prefix word and
// per unconsumed extension across all levels. This is Fractal's entire
// per-core intermediate state (Section 4.1, Table 2).
func (s *Stack) StateBytes() int64 { return 4 * (s.prefixes + s.pending) }

// PeakStateBytes is the largest StateBytes since the last Clear.
func (s *Stack) PeakStateBytes() int64 { return 4 * s.peak }
