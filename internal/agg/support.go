package agg

import (
	"fmt"
	"slices"
	"sync"

	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/wire"
)

// DomainSupport implements the minimum image-based support of Bringmann &
// Nijssen (PAKDD'08), the anti-monotonic support function the paper adopts
// for FSM (Section 2.2): the support of a pattern is the minimum, over
// canonical pattern positions, of the number of distinct input-graph
// vertices bound to that position across all of the pattern's embeddings.
//
// Domains are dense sorted vertex slices, not hash sets: per-position sets
// are exactly the sorted-set shape of the internal/graph kernels, so merging
// two supports is a sorted union and a single embedding's contribution is a
// handful of galloping inserts. To keep inserts cheap a domain is allowed to
// carry a small unsorted tail behind its sorted prefix (tracked by the
// unexported nsorted field); every element is distinct at all times and the
// tail is folded in by compact() when it grows past a fraction of the
// prefix, so inserts cost O(log n) amortized while Support, Aggregate on
// large domains, and every encoder see fully sorted slices.
//
// Exported fields cross the wire (binary.go).
type DomainSupport struct {
	// Pat is a representative pattern for reporting. Contributions built
	// from an embedding's Class carry the class's shared canonical
	// representative, which makes the "first pattern wins" reduction
	// independent of embedding arrival and merge order. A value decoded
	// from the wire — what the master's aggFilter and reduction see —
	// holds its pattern in wire form, and Pat is nil until the value is kept
	// or Pattern is called: a filter or reduction reads it through Pattern.
	Pat *pattern.Pattern
	// Threshold is the minimum support α the mining run uses.
	Threshold int64
	// Domains[i] holds the distinct graph vertices bound to canonical
	// position i. Sorted ascending except for a bounded in-progress insert
	// tail; call Sorted (or Support, which compacts) before reading order-
	// sensitive data. Each position's array is its own: once the value is
	// consumed (Aggregate's other, a value the step tail has folded) its
	// arrays go back to the domain pool.
	Domains [][]graph.VertexID

	// nsorted[i] is the length of Domains[i]'s sorted prefix; empty means
	// every domain is fully sorted. Never shipped: the codec compacts before
	// encoding.
	nsorted []int32
	// patWire is a decoded value's pattern in wire form, aliasing the frame
	// it was read from, until the value is kept (owned) or Pattern is called.
	patWire []byte
	// one is a contribution's slab: its one vertex per position, which
	// Domains holds as pieces of capacity 1 until a position grows into a
	// pooled array. The value keeps it across scratchPool uses, so building
	// a contribution takes nothing from the domain pool.
	one []graph.VertexID
	// fault is the sticky merge error (see DomainArityError); encoding a
	// faulted support fails, which routes the error through the runtime's
	// step-failure path.
	fault error
}

// DomainArityError reports an attempt to merge two domain supports with
// different position counts. Same canonical key implies same arity, so this
// only happens when an aggregation is miswired (e.g. a key function that
// collapses patterns of different sizes); the old implementation silently
// dropped the other side's evidence, which skewed frequency decisions. The
// error is sticky on the receiving support and surfaces as a typed
// *sched.AggregationError when the step's aggregations are merged, encoded,
// or shipped.
type DomainArityError struct {
	// Want and Got are the receiver's and the other side's position counts.
	Want, Got int
}

func (e *DomainArityError) Error() string {
	return fmt.Sprintf("agg: merging domain supports of different arity: %d positions into %d", e.Got, e.Want)
}

// NewDomainSupport returns the support contribution of a single embedding:
// vertices[i] is the graph vertex at embedding position i and perm[i] its
// canonical pattern position (from pattern.Canon.Perm), so that domains from
// different embeddings of the same pattern align. The value is consumed by
// the Aggregate it is folded through, or kept as it is by the first store of
// its key, and then grows through the domain pool (pool.go).
func NewDomainSupport(p *pattern.Pattern, threshold int64, vertices []graph.VertexID, perm []int) *DomainSupport {
	ds := scratch(len(vertices))
	if cap(ds.one) < len(vertices) {
		ds.one = make([]graph.VertexID, len(vertices))
	}
	ds.one = ds.one[:len(vertices)]
	for i, v := range vertices {
		pos := perm[i]
		ds.one[pos] = v
		ds.Domains[pos] = ds.one[pos : pos+1 : pos+1]
	}
	ds.Pat, ds.Threshold = p, threshold
	return ds
}

// ScratchDomainSupport is NewDomainSupport, under the name its callers have
// used since contributions were drawn from a pool of their own.
func ScratchDomainSupport(p *pattern.Pattern, threshold int64, vertices []graph.VertexID, perm []int) *DomainSupport {
	return NewDomainSupport(p, threshold, vertices, perm)
}

// scratchPool recycles the values themselves: the aggregation hot loop
// builds one DomainSupport per embedding only to fold it into the
// accumulated entry immediately, and the step tail decodes and reduces every
// candidate only to keep a few. A pooled value keeps the capacity of its
// position, sorted-prefix and slab slices; its other arrays are the domain
// pool's.
var scratchPool = sync.Pool{New: func() any { return new(DomainSupport) }}

// scratch returns a value of n positions that hold no array yet.
func scratch(n int) *DomainSupport {
	ds := scratchPool.Get().(*DomainSupport)
	ds.Domains = slices.Grow(ds.Domains[:0], n)[:n]
	return ds
}

// release is the end of a consumed value: its arrays go back to the domain
// pool and the value to scratchPool. Nothing may read it afterwards.
func (ds *DomainSupport) release() {
	if ds == nil {
		return
	}
	putDomains(ds.Domains...)
	clear(ds.Domains)
	ds.Domains, ds.nsorted, ds.one = ds.Domains[:0], ds.nsorted[:0], ds.one[:0]
	ds.Pat, ds.patWire, ds.fault = nil, nil, nil
	scratchPool.Put(ds)
}

// owned makes ds fit to be kept by a store, which keeps it as it is, arrays
// and all: its pattern is decoded, so that it holds no view of a frame.
func (ds *DomainSupport) owned() *DomainSupport {
	if ds != nil {
		ds.Pattern()
	}
	return ds
}

// Pattern returns Pat, decoding it first if the value still holds it in
// wire form, as a value decoded from the wire does until it is kept. It was
// checked when it was read (pattern.SkipBinary), so it decodes.
func (ds *DomainSupport) Pattern() *pattern.Pattern {
	if ds.Pat == nil && ds.patWire != nil {
		ds.Pat, ds.patWire = pattern.ReadBinary(wire.NewReader(ds.patWire)), nil
	}
	return ds.Pat
}

// insert adds v to position pos, keeping elements distinct. The sorted
// prefix is searched by galloping, the bounded tail linearly; a full tail is
// compacted into the prefix.
func (ds *DomainSupport) insert(pos int, v graph.VertexID) {
	d := ds.Domains[pos]
	ns := len(d)
	if len(ds.nsorted) != 0 {
		ns = int(ds.nsorted[pos])
	}
	if i := graph.Gallop(d[:ns], v); i < ns && d[i] == v {
		return
	}
	for _, t := range d[ns:] {
		if t == v {
			return
		}
	}
	ds.Domains[pos] = append(grown(d, len(d)+1), v)
	if len(ds.nsorted) == 0 {
		ds.nsorted = slices.Grow(ds.nsorted, len(ds.Domains))[:len(ds.Domains)]
		for i, di := range ds.Domains {
			ds.nsorted[i] = int32(len(di))
		}
		ds.nsorted[pos] = int32(ns)
	}
	if tail := len(ds.Domains[pos]) - ns; tail > 32+ns>>3 {
		ds.compactPos(pos)
	}
}

// compactPos folds position pos's tail into its sorted prefix. Elements are
// distinct by the insert invariant, so a sort suffices.
func (ds *DomainSupport) compactPos(pos int) {
	slices.Sort(ds.Domains[pos])
	if len(ds.nsorted) != 0 {
		ds.nsorted[pos] = int32(len(ds.Domains[pos]))
	}
}

// compact folds every tail in, restoring the fully-sorted invariant.
func (ds *DomainSupport) compact() {
	if ds == nil || len(ds.nsorted) == 0 {
		return
	}
	for pos := range ds.Domains {
		if int(ds.nsorted[pos]) != len(ds.Domains[pos]) {
			slices.Sort(ds.Domains[pos])
		}
	}
	ds.nsorted = ds.nsorted[:0]
}

// Sorted returns the fully sorted, distinct domain of canonical position
// pos, compacting any in-progress insert tail first.
func (ds *DomainSupport) Sorted(pos int) []graph.VertexID {
	ds.compact()
	return ds.Domains[pos]
}

// Err returns the sticky merge fault: non-nil after an arity-mismatched
// Aggregate, in which case encoding the support (and therefore shipping the
// step's aggregation) fails with a *DomainArityError inside the runtime's
// typed step-failure error.
func (ds *DomainSupport) Err() error { return ds.fault }

// Aggregate folds other into ds (the reduction function of the FSM
// aggregation in Listing 3 of the paper): every domain becomes the sorted
// union of both sides. Merging supports of different arities records a
// sticky *DomainArityError on the result instead of silently dropping
// evidence; the error fails the step when its aggregation is encoded.
//
// other is consumed: its arrays go back to the domain pool, so only the
// result may be used after the call. ds absorbs other in place, its domains
// growing through the pool. An accumulator kept outside an Aggregation
// starts from a nil *DomainSupport: nil.Aggregate(v) is v.
func (ds *DomainSupport) Aggregate(other *DomainSupport) *DomainSupport {
	if ds == nil {
		return other.owned()
	}
	if other == nil || other == ds {
		return ds
	}
	if ds.Pat == nil && ds.patWire == nil {
		ds.Pat, ds.patWire = other.Pat, other.patWire
		ds.Pattern() // other's frame may be gone before ds is
	}
	if other.fault != nil && ds.fault == nil {
		ds.fault = other.fault
	}
	if len(other.Domains) != len(ds.Domains) {
		if ds.fault == nil {
			ds.fault = &DomainArityError{Want: len(ds.Domains), Got: len(other.Domains)}
		}
		other.release()
		return ds
	}
	other.compact()
	for pos, od := range other.Domains {
		if len(od) <= 4 {
			// A small contribution (the per-embedding case is a single vertex
			// per position) goes through the insert path.
			for _, v := range od {
				ds.insert(pos, v)
			}
			continue
		}
		// One pass of the union kernel into a pooled array, which takes the
		// old domain's place while the old one goes back.
		d := ds.Domains[pos]
		if len(ds.nsorted) != 0 && int(ds.nsorted[pos]) < len(d) {
			slices.Sort(d)
		}
		ds.Domains[pos] = graph.UnionSorted(d, od, getDomain(len(d)+len(od)))
		putDomains(d)
		if len(ds.nsorted) != 0 {
			ds.nsorted[pos] = int32(len(ds.Domains[pos]))
		}
	}
	other.release()
	return ds
}

// Support returns the minimum image-based support s(P).
func (ds *DomainSupport) Support() int64 {
	if len(ds.Domains) == 0 {
		return 0
	}
	min := int64(len(ds.Domains[0]))
	for _, d := range ds.Domains[1:] {
		if n := int64(len(d)); n < min {
			min = n
		}
	}
	return min
}

// HasEnoughSupport reports s(P) >= Threshold.
func (ds *DomainSupport) HasEnoughSupport() bool { return ds.Support() >= ds.Threshold }

// String summarizes the support entry.
func (ds *DomainSupport) String() string {
	return fmt.Sprintf("DomainSupport(s=%d α=%d positions=%d)",
		ds.Support(), ds.Threshold, len(ds.Domains))
}

// ReduceDomainSupport is the reduction function for DomainSupport
// aggregations: a.Aggregate(b), so b is consumed. Like every reduction's,
// its arguments are valid for the call only.
func ReduceDomainSupport(a, b *DomainSupport) *DomainSupport { return a.Aggregate(b) }

// PatternCount is the value of pattern-frequency aggregations (motifs): a
// count plus a representative pattern for reporting.
type PatternCount struct {
	Pat   *pattern.Pattern
	Count int64
}

// ReducePatternCount sums counts, keeping the first representative pattern.
// Value functions should take the pattern from Context.PatternRep (the
// class's shared canonical representative) so that "first" is the same
// pattern no matter the embedding arrival or merge order.
func ReducePatternCount(a, b PatternCount) PatternCount {
	if a.Pat == nil {
		a.Pat = b.Pat
	}
	a.Count += b.Count
	return a
}
