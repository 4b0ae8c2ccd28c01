package agg

import (
	"slices"
	"sync"
	"testing"

	"fractal/internal/graph"
)

// TestDomainPoolClasses: an array comes out with room for what was asked,
// at a power of two of at least 2, and goes back under the class its
// capacity covers; a slab piece (capacity 1) never enters the pool.
func TestDomainPoolClasses(t *testing.T) {
	for n, want := range map[int]int{0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024} {
		if d := getDomain(n); len(d) != 0 || cap(d) != want {
			t.Errorf("getDomain(%d): len %d cap %d, want 0 and %d", n, len(d), cap(d), want)
		}
	}
	putDomains(make([]graph.VertexID, 3, 6)) // class 2: 4 of its 6 slots
	if d := getDomain(4); cap(d) != 4 {
		t.Errorf("an array of capacity 6 came back with capacity %d, want 4", cap(d))
	}
	one := []graph.VertexID{7}
	putDomains(one[:1:1])
	if one[0] != 7 {
		t.Error("a slab piece went into the pool")
	}
}

// TestDomainPoolConcurrentUse: cores grow, union and release values at once
// through the one pool, with every returned array poisoned; no value ever
// reads another's vertices or a sentinel. Run it with -race -count=10.
func TestDomainPoolConcurrentUse(t *testing.T) {
	PoisonReturned(t)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := graph.VertexID(g * 1000)
			for round := range 100 {
				ds := NewDomainSupport(nil, 1, []graph.VertexID{base, base + 1}, []int{0, 1})
				var want []graph.VertexID
				for v := base; v < base+graph.VertexID(round); v++ {
					ds = ds.Aggregate(NewDomainSupport(nil, 1, []graph.VertexID{base, v}, []int{0, 1}))
					want = append(want, v)
				}
				big := NewDomainSupport(nil, 1, []graph.VertexID{base, base + 500}, []int{0, 1})
				for v := base + 500; v < base+510; v++ {
					big.insert(1, v)
				}
				ds = ds.Aggregate(big) // a union of more than four vertices
				want = append(want, base+1)
				for v := base + 500; v < base+510; v++ {
					want = append(want, v)
				}
				slices.Sort(want)
				want = slices.Compact(want)
				if got := ds.Sorted(1); !slices.Equal(got, want) {
					t.Errorf("goroutine %d round %d: domain %v, want %v", g, round, got, want)
					return
				}
				ds.release()
			}
		}()
	}
	wg.Wait()
}
