package graph

// This file implements the set-operation kernels that the subgraph
// enumerators run in their innermost loop: pattern extension intersects its
// anchors' adjacency lists and subtracts an induced plan's non-neighbours
// with them, KClist intersects each level's candidates with the new
// vertex's neighbours, and the aggregation layer unions domain supports.
// No other production code merges or gallops two sorted lists into a
// candidate set. All kernels operate on ascending sorted slices (CSR
// adjacency runs are sorted by construction), tolerate duplicate elements
// in their inputs (a multigraph adjacency lists one entry per parallel
// edge), and emit each distinct matching value exactly once, in ascending
// order.
//
// Buffer ownership: every kernel appends into a caller-provided destination
// and returns the extended slice; kernels never allocate on their own when
// the destination has capacity, which is what makes the extension hot path
// allocation-free in steady state. Destinations must not alias the inputs.
//
// Two intersection strategies are provided, chosen by the size ratio of the
// inputs: a linear merge (optimal when the lists are comparable) and a
// galloping search (optimal when one list is much shorter — the classic
// small-vs-hub case of graph pattern mining, where a candidate set meets a
// high-degree vertex's adjacency). GallopRatio is the crossover: merging
// costs O(|a|+|b|) while galloping costs O(|a| log |b|), so galloping wins
// once |b| exceeds |a| by more than a small multiple. 8 is the conventional
// threshold (see e.g. timsort's galloping mode) and benchmarks flat around
// that value here.

// GallopRatio is the size ratio |big|/|small| above which IntersectSorted
// and DiffSorted switch from linear merging to galloping search.
const GallopRatio = 8

// Gallop returns the smallest index i such that a[i] >= x, assuming a is
// sorted ascending; it returns len(a) when no such element exists. It probes
// exponentially from the front and then binary-searches the bracketed range,
// costing O(log d) where d is the returned index — cheaper than a full
// binary search when matches cluster near the front, which is the access
// pattern of a forward-moving intersection.
func Gallop[T ~int32](a []T, x T) int {
	if len(a) == 0 || a[0] >= x {
		return 0
	}
	// Invariant: a[lo] < x <= a[hi] (hi == len(a) means "past the end").
	lo, hi := 0, 1
	for hi < len(a) && a[hi] < x {
		lo = hi
		hi <<= 1
	}
	if hi > len(a) {
		hi = len(a)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// IntersectSorted appends the distinct values present in both a and b to dst
// and returns the extended slice. It dispatches between the merge and
// galloping kernels by size ratio.
func IntersectSorted[T ~int32](a, b, dst []T) []T {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= GallopRatio*len(a) {
		return intersectGallop(a, b, dst)
	}
	return intersectMerge(a, b, dst)
}

// intersectMerge is the linear two-pointer intersection.
func intersectMerge[T ~int32](a, b, dst []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			dst = append(dst, x)
			for i < len(a) && a[i] == x {
				i++
			}
			for j < len(b) && b[j] == y {
				j++
			}
		}
	}
	return dst
}

// intersectGallop intersects by galloping into big for each distinct value
// of small. The gallop restarts from the previous match position, so a full
// pass costs O(|small| log(|big|/|small|)) amortized.
func intersectGallop[T ~int32](small, big, dst []T) []T {
	j := 0
	for i := 0; i < len(small); {
		x := small[i]
		for i < len(small) && small[i] == x {
			i++
		}
		j += Gallop(big[j:], x)
		if j >= len(big) {
			break
		}
		if big[j] == x {
			dst = append(dst, x)
		}
	}
	return dst
}

// UnionSorted appends the distinct values present in a or b (or both) to dst
// and returns the extended slice. Like the other kernels it tolerates
// duplicates within each input and emits every distinct value exactly once,
// ascending. The aggregation layer runs this in its merge hot loop (domain
// supports are unions of sorted vertex sets), so the same buffer-ownership
// contract applies: dst must not alias either input.
func UnionSorted[T ~int32](a, b, dst []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		var v T
		switch {
		case x < y:
			v = x
		case x > y:
			v = y
		default:
			v = x
		}
		dst = append(dst, v)
		for i < len(a) && a[i] == v {
			i++
		}
		for j < len(b) && b[j] == v {
			j++
		}
	}
	if i < len(a) {
		dst = dedupSorted(a[i:], dst)
	}
	if j < len(b) {
		dst = dedupSorted(b[j:], dst)
	}
	return dst
}

// DiffSorted appends the distinct values of a that are absent from b to dst
// and returns the extended slice. Like IntersectSorted it gallops into b
// when b is at least GallopRatio times longer than a. A duplicate run of a
// is collapsed when it is emitted — a value equal to the last one appended
// is dropped — rather than skipped element by element: the subtraction of
// pattern extension runs on duplicate-free candidate lists, where a run
// check per element is pure overhead.
func DiffSorted[T ~int32](a, b, dst []T) []T {
	start, j := len(dst), 0
	if len(b) >= GallopRatio*len(a) {
		for _, x := range a {
			j += Gallop(b[j:], x)
			if (j >= len(b) || b[j] != x) && (len(dst) == start || dst[len(dst)-1] != x) {
				dst = append(dst, x)
			}
		}
		return dst
	}
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if (j >= len(b) || b[j] != x) && (len(dst) == start || dst[len(dst)-1] != x) {
			dst = append(dst, x)
		}
	}
	return dst
}

// dedupSorted appends the distinct values of a to dst.
func dedupSorted[T ~int32](a, dst []T) []T {
	for i := 0; i < len(a); {
		x := a[i]
		dst = append(dst, x)
		for i < len(a) && a[i] == x {
			i++
		}
	}
	return dst
}
