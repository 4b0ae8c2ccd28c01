package agg

import (
	"fmt"
	"slices"
	"sync"

	"fractal/internal/graph"
	"fractal/internal/pattern"
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
	// independent of embedding arrival and merge order.
	Pat *pattern.Pattern
	// Threshold is the minimum support α the mining run uses.
	Threshold int64
	// Domains[i] holds the distinct graph vertices bound to canonical
	// position i. Sorted ascending except for a bounded in-progress insert
	// tail; call Sorted (or Support, which compacts) before reading order-
	// sensitive data.
	Domains [][]graph.VertexID

	// nsorted[i] is the length of Domains[i]'s sorted prefix; nil means
	// every domain is fully sorted. Never shipped: the codec compacts
	// before encoding.
	nsorted []int32
	// borrowed marks a pooled scratch contribution (see ScratchDomainSupport):
	// it must be folded into an owned value or cloned, never stored.
	borrowed bool
	// backing is the reusable vertex arena of a scratch instance.
	backing []graph.VertexID
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
// different embeddings of the same pattern align.
func NewDomainSupport(p *pattern.Pattern, threshold int64, vertices []graph.VertexID, perm []int) *DomainSupport {
	ds := &DomainSupport{
		Pat:       p,
		Threshold: threshold,
		Domains:   make([][]graph.VertexID, len(vertices)),
	}
	backing := make([]graph.VertexID, len(vertices))
	for i, v := range vertices {
		pos := perm[i]
		backing[pos] = v
		ds.Domains[pos] = backing[pos : pos+1 : pos+1]
	}
	return ds
}

// scratchPool recycles single-embedding contributions: the aggregation hot
// loop builds one DomainSupport per embedding only to fold it into the
// accumulated entry immediately, so the builder's storage is reused instead
// of allocated (the aggregation-side analog of the extension scratch of the
// enumeration kernels). Pool affinity is per-P, which on the runtime's
// pinned cores behaves as a per-core arena.
var scratchPool = sync.Pool{New: func() any { return &DomainSupport{borrowed: true} }}

// ScratchDomainSupport is NewDomainSupport on pooled storage: the returned
// value is borrowed and is reclaimed automatically when folded through
// ReduceDomainSupport / Aggregate (or first stored by an Aggregation, which
// clones it). Callers that keep a contribution must use NewDomainSupport.
func ScratchDomainSupport(p *pattern.Pattern, threshold int64, vertices []graph.VertexID, perm []int) *DomainSupport {
	ds := scratchPool.Get().(*DomainSupport)
	n := len(vertices)
	if cap(ds.Domains) < n {
		ds.Domains = make([][]graph.VertexID, n)
	} else {
		ds.Domains = ds.Domains[:n]
	}
	if cap(ds.backing) < n {
		ds.backing = make([]graph.VertexID, n)
	} else {
		ds.backing = ds.backing[:n]
	}
	for i, v := range vertices {
		pos := perm[i]
		ds.backing[pos] = v
		ds.Domains[pos] = ds.backing[pos : pos+1 : pos+1]
	}
	ds.Pat, ds.Threshold = p, threshold
	ds.nsorted, ds.fault = nil, nil
	return ds
}

// release returns a borrowed contribution to the pool.
func (ds *DomainSupport) release() {
	if ds == nil || !ds.borrowed {
		return
	}
	ds.Pat, ds.fault = nil, nil
	scratchPool.Put(ds)
}

// owned returns ds if it is an ordinary value, or a compact owned copy when
// ds is a borrowed scratch contribution (which is then released).
func (ds *DomainSupport) owned() *DomainSupport {
	if ds == nil || !ds.borrowed {
		return ds
	}
	out := &DomainSupport{Pat: ds.Pat, Threshold: ds.Threshold, fault: ds.fault}
	total := 0
	for _, d := range ds.Domains {
		total += len(d)
	}
	backing := make([]graph.VertexID, 0, total)
	out.Domains = make([][]graph.VertexID, len(ds.Domains))
	for i, d := range ds.Domains {
		start := len(backing)
		backing = append(backing, d...)
		out.Domains[i] = backing[start:len(backing):len(backing)]
	}
	ds.release()
	return out
}

// insert adds v to position pos, keeping elements distinct. The sorted
// prefix is searched by galloping, the bounded tail linearly; a full tail is
// compacted into the prefix.
func (ds *DomainSupport) insert(pos int, v graph.VertexID) {
	d := ds.Domains[pos]
	ns := len(d)
	if ds.nsorted != nil {
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
	ds.Domains[pos] = append(d, v)
	if ds.nsorted == nil {
		ds.nsorted = make([]int32, len(ds.Domains))
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
	if ds.nsorted != nil {
		ds.nsorted[pos] = int32(len(ds.Domains[pos]))
	}
}

// compact folds every tail in, restoring the fully-sorted invariant.
func (ds *DomainSupport) compact() {
	if ds == nil || ds.nsorted == nil {
		return
	}
	for pos := range ds.Domains {
		if int(ds.nsorted[pos]) != len(ds.Domains[pos]) {
			slices.Sort(ds.Domains[pos])
		}
	}
	ds.nsorted = nil
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
// A borrowed (scratch) other is reclaimed; a borrowed receiver is first
// converted to an owned value, so the returned support is always storable.
func (ds *DomainSupport) Aggregate(other *DomainSupport) *DomainSupport {
	if ds == nil {
		return other.owned()
	}
	ds = ds.owned()
	if other == nil {
		return ds
	}
	if ds.Pat == nil {
		ds.Pat = other.Pat
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
	for pos, od := range other.Domains {
		ons := len(od)
		if other.nsorted != nil {
			ons = int(other.nsorted[pos])
		}
		if len(od) <= 4 || ons < len(od) {
			// Small or tailed contributions (the per-embedding case is a
			// single vertex per position) go through the insert path.
			for _, v := range od {
				ds.insert(pos, v)
			}
			continue
		}
		// Both sides large and sorted: one pass of the union kernel.
		d := ds.Domains[pos]
		ns := len(d)
		if ds.nsorted != nil {
			ns = int(ds.nsorted[pos])
		}
		if ns < len(d) {
			slices.Sort(d)
			ds.nsorted[pos] = int32(len(d))
		}
		ds.Domains[pos] = graph.UnionSorted(d, od, make([]graph.VertexID, 0, len(d)+len(od)))
		if ds.nsorted != nil {
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
// aggregations.
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
