// Package agg implements the aggregation primitive (A) of the Fractal
// computation model (Section 3): subgraphs are mapped to key/value entries
// that are reduced per key, first locally per core, then per worker, and
// finally globally by the master. It also provides the minimum image-based
// support used by frequent subgraph mining (Section 2.2).
package agg

import (
	"fmt"
	"sort"
	"sync"
)

// Store is the type-erased view of an aggregation map used by the runtime
// to merge partial results across cores and workers.
type Store interface {
	// Len returns the number of keys.
	Len() int
	// MergeFrom folds other (which must have the same dynamic type) into
	// the receiver.
	MergeFrom(other Store) error
	// Shippable returns nil when the store's contents have a wire form, and
	// otherwise the *UnsupportedShapeError that Encode and DecodeAndMerge
	// would return.
	Shippable() error
	// Encode serializes the contents for the wire.
	Encode() ([]byte, error)
	// DecodeAndMerge folds serialized contents into the receiver.
	DecodeAndMerge(data []byte) error
	// FoldToFrames reduces parts — per-core stores of the receiver's type,
	// consumed — key by key in ascending key order and hands the result to
	// emit as one or more frames (fold.go). The receiver lends its reduction
	// and is not written to. A frame is only valid during the call of emit;
	// stop is polled before each (nil: never) and ends the fold with
	// ErrMergeCancelled.
	FoldToFrames(parts []Store, stop func() bool, emit func(frame []byte) error) error
	// FoldFrames reduces the frame sequences of any number of senders, each
	// as its FoldToFrames emitted it, into a new store that holds only the
	// entries the aggFilter keeps. The frames are read in place, and stop is
	// polled at each.
	FoldFrames(seqs [][][]byte, stop func() bool) (Store, error)
	// NewEmpty returns an empty store of the same type and reduction.
	NewEmpty() Store
	// ApplyFilter drops entries rejected by the aggregation's aggFilter
	// (the optional fourth argument of operator W2); no-op when absent.
	ApplyFilter()
}

// Aggregation is a typed key/value aggregation with a user reduction
// function. It is not safe for concurrent use: the runtime keeps one per
// core and merges.
type Aggregation[K comparable, V any] struct {
	m      map[K]V
	reduce func(V, V) V
	filter func(K, V) bool // optional aggFilter
	life   *lifecycle[V]   // non-nil for a value type with borrowed values: *DomainSupport
}

// lifecycle is the rule for a value type with borrowed values: a value is
// borrowed until a store keeps it, and keeping it is the one copy.
type lifecycle[V any] struct {
	own     func(V) V // a storable copy of a borrowed value, which it releases; identity on others
	lend    func(V) V // a borrowed value to reduce into: v itself, or a pooled copy of a stored one
	release func(V)   // returns a borrowed value's storage; a no-op on a stored one
}

var supportLife = &lifecycle[*DomainSupport]{
	own: (*DomainSupport).owned, lend: (*DomainSupport).lent, release: (*DomainSupport).release,
}

// New returns an empty aggregation with the given reduction function.
func New[K comparable, V any](reduce func(V, V) V) *Aggregation[K, V] {
	a := &Aggregation[K, V]{m: map[K]V{}, reduce: reduce}
	a.life, _ = any(supportLife).(*lifecycle[V])
	return a
}

// WithFilter sets the aggFilter applied after the final global merge and
// returns the aggregation. On the master the filter is handed each key's
// reduced value before anything is kept: its arguments are borrowed, valid
// for the call only (a *DomainSupport's storage is reused for the next key,
// and the key may alias the frame it arrived in), so it must not retain them.
func (a *Aggregation[K, V]) WithFilter(keep func(K, V) bool) *Aggregation[K, V] {
	a.filter = keep
	return a
}

// Add folds value v into key k. v may be a borrowed (scratch) contribution:
// the first store of a key copies it into owned storage, and the reduction
// consumes it otherwise.
func (a *Aggregation[K, V]) Add(k K, v V) {
	if old, ok := a.m[k]; ok {
		a.m[k] = a.reduce(old, v)
	} else {
		if a.life != nil {
			v = a.life.own(v)
		}
		a.m[k] = v
	}
}

// Get returns the value reduced under k.
func (a *Aggregation[K, V]) Get(k K) (V, bool) {
	v, ok := a.m[k]
	return v, ok
}

// Contains reports whether k has an entry.
func (a *Aggregation[K, V]) Contains(k K) bool {
	_, ok := a.m[k]
	return ok
}

// Len returns the number of keys.
func (a *Aggregation[K, V]) Len() int { return len(a.m) }

// Range calls f for every entry until f returns false. Iteration order is
// unspecified.
func (a *Aggregation[K, V]) Range(f func(K, V) bool) {
	for k, v := range a.m {
		if !f(k, v) {
			return
		}
	}
}

// Entries returns a copy of the aggregation as a map.
func (a *Aggregation[K, V]) Entries() map[K]V {
	out := make(map[K]V, len(a.m))
	for k, v := range a.m {
		out[k] = v
	}
	return out
}

// MergeFrom implements Store.
func (a *Aggregation[K, V]) MergeFrom(other Store) error {
	o, ok := other.(*Aggregation[K, V])
	if !ok {
		return fmt.Errorf("agg: merging %T into %T", other, a)
	}
	for k, v := range o.m {
		a.Add(k, v)
	}
	return nil
}

// NewEmpty implements Store.
func (a *Aggregation[K, V]) NewEmpty() Store {
	return &Aggregation[K, V]{m: map[K]V{}, reduce: a.reduce, filter: a.filter, life: a.life}
}

// ApplyFilter implements Store.
func (a *Aggregation[K, V]) ApplyFilter() {
	if a.filter == nil {
		return
	}
	for k, v := range a.m {
		if !a.filter(k, v) {
			delete(a.m, k)
		}
	}
}

// Registry holds the named aggregations of an execution (one namespace per
// fractal application, as in operator W2's aggName). Safe for concurrent
// use.
type Registry struct {
	mu     sync.RWMutex
	stores map[string]Store
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{stores: map[string]Store{}} }

// Put registers (or replaces) the store under name.
func (r *Registry) Put(name string, s Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stores[name] = s
}

// Get returns the store under name.
func (r *Registry) Get(name string) (Store, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.stores[name]
	return s, ok
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.stores))
	for n := range r.stores {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Typed retrieves the aggregation under name as its concrete type. It
// returns an error when the name is unknown or bound to a different type.
func Typed[K comparable, V any](r *Registry, name string) (*Aggregation[K, V], error) {
	s, ok := r.Get(name)
	if !ok {
		return nil, fmt.Errorf("agg: unknown aggregation %q", name)
	}
	a, ok := s.(*Aggregation[K, V])
	if !ok {
		return nil, fmt.Errorf("agg: aggregation %q has type %T", name, s)
	}
	return a, nil
}

// SumInt64 is the common count-reduction.
func SumInt64(a, b int64) int64 { return a + b }

// MaxInt64 keeps the maximum.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// MinInt64 keeps the minimum.
func MinInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
