package agg

import (
	"math/bits"
	"sync"
	"unsafe"

	"fractal/internal/graph"
)

// domainPool is the one source of DomainSupport domain arrays (DESIGN §9).
// free[c] holds arrays of capacity 1<<c, each by a pointer to its first
// element, a third of what a slice header would take. A domain that
// outgrows its array moves to the next class and returns the old one, and a
// consumed value (release) returns all of its arrays, so what one FSM level
// grew is what the next level's domains grow into, whether or not a
// collection ran in between. The pool keeps what it is given: in each class,
// at most the most arrays of that class the process's domains held at once.
// The smallest class is 2: an array of capacity 1 is a piece of a
// contribution's slab (DomainSupport.one), which stays with its value and
// never enters the pool. Only growth, unions, decoding and the returns of
// consumed values take the lock; building a contribution and folding it
// into a stored value's room do not.
var domainPool struct {
	mu   sync.Mutex
	free [bits.UintSize][]*graph.VertexID
}

// returned, when set, is called with every array put back into the pool,
// over its full capacity. Tests set it to fill the array with a sentinel
// vertex, so that a value still read after its arrays went back shows.
var returned func([]graph.VertexID)

// getDomain returns an empty array with room for n vertices: the pooled
// array of the smallest class that holds n, or a new one of that capacity.
func getDomain(n int) []graph.VertexID {
	c := 1
	if n > 2 {
		c = bits.Len(uint(n - 1))
	}
	domainPool.mu.Lock()
	if f := domainPool.free[c]; len(f) > 0 {
		p := f[len(f)-1]
		f[len(f)-1] = nil
		domainPool.free[c] = f[:len(f)-1]
		domainPool.mu.Unlock()
		return unsafe.Slice(p, 1<<c)[:0]
	}
	domainPool.mu.Unlock()
	return make([]graph.VertexID, 0, 1<<c)
}

// putDomains returns arrays to the pool, each under the largest class its
// capacity covers, so an array of any capacity from 2 up can go back; a
// slab piece stays where it is. A value's arrays go back under one lock.
// None of them may be read again: the pool hands them out to the next
// getDomain.
func putDomains(ds ...[]graph.VertexID) {
	locked := false
	for _, d := range ds {
		if cap(d) < 2 {
			continue
		}
		c := bits.Len(uint(cap(d))) - 1
		d = d[:1<<c]
		if returned != nil {
			returned(d)
		}
		if !locked {
			domainPool.mu.Lock()
			locked = true
		}
		domainPool.free[c] = append(domainPool.free[c], unsafe.SliceData(d))
	}
	if locked {
		domainPool.mu.Unlock()
	}
}

// grown returns d with room for n vertices: d itself when its array holds
// them, or else d's vertices moved into a pooled array of the class that
// does, d's array going back.
func grown(d []graph.VertexID, n int) []graph.VertexID {
	if n <= cap(d) {
		return d
	}
	nd := append(getDomain(n), d...)
	putDomains(d)
	return nd
}
