// The aggregation wire codec: the one form in which aggregation contents
// cross a process boundary. The shippable shapes are a closed set — string
// keys to int64 counts, PatternCount or *DomainSupport values (valueCodecs),
// plus the Int64Sums vector of scalar.go — and any other K/V is refused up
// front with an *UnsupportedShapeError (DESIGN.md, "Wire format"). A payload
// is one tag byte naming its shape, the entry count, then the entries in
// ascending key order as tight varint runs (domain supports additionally
// delta-encode their sorted vertex sets), so equal maps encode to identical
// bytes — the property the merge-order-independence tests pin. The tag alone
// is enough to rebuild a store (Decode).
package agg

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"

	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/wire"
)

// The payload tags: one per value codec, and wireScalar for an Int64Sums.
// A store decodes only payloads of its own tag.
const (
	wireCount         byte = 1
	wireScalar        byte = 2
	wirePatternCount  byte = 3
	wireDomainSupport byte = 4
)

// UnsupportedShapeError is the refusal of an aggregation whose key or value
// type has no wire form. Partials cross the wire at the end of every step —
// between the workers and the master even in-process — so the runtime raises
// it once per job, before step 0 enumerates anything.
type UnsupportedShapeError struct {
	// Key and Value name the aggregation's K and V.
	Key, Value string
}

func (e *UnsupportedShapeError) Error() string {
	return fmt.Sprintf("agg: an aggregation from %s keys to %s values has no wire form: only string keys to int64, PatternCount or *DomainSupport values ship (render the key as a string)", e.Key, e.Value)
}

// valueCodec is the wire form of one value type: the tag of its payloads,
// put, which appends to dst (the encoder's writer stays off the heap that
// way), and get, which reads from r.
type valueCodec[V any] struct {
	tag byte
	put func(dst []byte, v V) ([]byte, error)
	get func(r *wire.Reader) V
}

// valueCodecs is the closed set of value types that ship.
var valueCodecs = []any{
	valueCodec[int64]{tag: wireCount, put: putCount, get: (*wire.Reader).Varint},
	valueCodec[PatternCount]{tag: wirePatternCount, put: putPatternCount, get: getPatternCount},
	valueCodec[*DomainSupport]{tag: wireDomainSupport, put: putDomainSupport, get: getDomainSupport},
}

// Decode rebuilds a store from a payload alone, its tag naming the shape: a
// string-keyed aggregation with the value type's reduction (SumInt64,
// ReducePatternCount, ReduceDomainSupport) and no aggFilter, or an
// Int64Sums of the payload's arity. It fails as DecodeAndMerge does, with a
// *wire.Error, on an unknown tag too.
func Decode(data []byte) (Store, error) {
	r := wire.NewReader(data)
	var s Store
	switch tag := r.Byte(); tag {
	case wireCount:
		s = New[string, int64](SumInt64)
	case wirePatternCount:
		s = New[string, PatternCount](ReducePatternCount)
	case wireDomainSupport:
		s = New[string, *DomainSupport](ReduceDomainSupport)
	case wireScalar:
		s = NewInt64Sums(r.Count())
	default:
		r.Failf("unknown wire tag %d", tag)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("agg: decoding a payload: %w", err)
	}
	if err := s.DecodeAndMerge(data); err != nil {
		return nil, err
	}
	return s, nil
}

// wireForm returns the aggregation as the codec walks it — a string-keyed
// view sharing a's map and reduction, with V's value codec — or the typed
// refusal when K/V is outside the closed set.
func (a *Aggregation[K, V]) wireForm() (Aggregation[string, V], valueCodec[V], error) {
	if m, ok := any(a.m).(map[string]V); ok {
		for _, c := range valueCodecs {
			if vc, ok := c.(valueCodec[V]); ok {
				return Aggregation[string, V]{m: m, reduce: a.reduce, life: a.life}, vc, nil
			}
		}
	}
	return Aggregation[string, V]{}, valueCodec[V]{}, &UnsupportedShapeError{
		Key: reflect.TypeFor[K]().String(), Value: reflect.TypeFor[V]().String(),
	}
}

// Shippable implements Store.
func (a *Aggregation[K, V]) Shippable() error {
	_, _, err := a.wireForm()
	return err
}

// Encode implements Store.
func (a *Aggregation[K, V]) Encode() ([]byte, error) {
	view, vc, err := a.wireForm()
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(view.m))
	for k := range view.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := wire.Writer{B: []byte{vc.tag}}
	w.Count(len(keys))
	for _, k := range keys {
		w.Str(k)
		if w.B, err = vc.put(w.B, view.m[k]); err != nil {
			return nil, fmt.Errorf("agg: encoding entry %q: %w", k, err)
		}
	}
	return w.B, nil
}

// DecodeAndMerge implements Store.
func (a *Aggregation[K, V]) DecodeAndMerge(data []byte) error {
	view, vc, err := a.wireForm()
	if err != nil {
		return err
	}
	r := payloadReader(data, vc.tag)
	prev := ""
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		k, v := r.Str(), vc.get(r)
		// The encoder writes ascending keys; a repeated key would fold two
		// of the payload's own values into each other.
		if i > 0 && k <= prev {
			r.Failf("key %q out of order", k)
		}
		if r.Err() == nil {
			view.Add(k, v)
		}
		prev = k
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("agg: decoding into %T: %w", a.m, err)
	}
	return nil
}

// payloadReader returns a reader positioned past the payload's tag byte,
// already failed when the tag is not want.
func payloadReader(data []byte, want byte) *wire.Reader {
	r := wire.NewReader(data)
	if tag := r.Byte(); tag != want {
		r.Failf("wire tag %d, want %d", tag, want)
	}
	return r
}

// putPattern writes an optional pattern: a presence byte, then its wire form.
func putPattern(w *wire.Writer, p *pattern.Pattern) {
	w.Bool(p != nil)
	if p != nil {
		w.B = p.AppendBinary(w.B)
	}
}

func putCount(dst []byte, v int64) ([]byte, error) {
	w := wire.Writer{B: dst}
	w.Varint(v)
	return w.B, nil
}

func putPatternCount(dst []byte, pc PatternCount) ([]byte, error) {
	w := wire.Writer{B: dst}
	putPattern(&w, pc.Pat)
	w.Varint(pc.Count)
	return w.B, nil
}

func getPatternCount(r *wire.Reader) (pc PatternCount) {
	if r.Bool() {
		pc.Pat = pattern.ReadBinary(r)
	}
	pc.Count = r.Varint()
	return pc
}

// putDomainSupport writes one support value: threshold, optional pattern,
// then each position's sorted domain as a first-value + deltas varint run.
// A faulted support refuses to encode, surfacing the sticky merge error.
func putDomainSupport(dst []byte, ds *DomainSupport) ([]byte, error) {
	if err := ds.Err(); err != nil {
		return nil, err
	}
	ds.compact()
	w := wire.Writer{B: dst}
	w.Varint(ds.Threshold)
	putPattern(&w, ds.Pat)
	w.Count(len(ds.Domains))
	for _, d := range ds.Domains {
		w.Count(len(d))
		prev := graph.VertexID(0)
		for _, v := range d {
			w.Uvarint(uint64(v - prev))
			prev = v
		}
	}
	return w.B, nil
}

// getDomainSupport decodes one support value into pooled storage, its
// pattern left in wire form (checked, not built) until the value is kept.
func getDomainSupport(r *wire.Reader) *DomainSupport {
	threshold := r.Varint()
	var patWire []byte
	if r.Bool() {
		patWire = pattern.SkipBinary(r)
	}
	ds := scratch(r.Count())
	ds.Threshold, ds.patWire = threshold, patWire
	for i := range ds.Domains {
		n := r.Count()
		d, prev := getDomain(n), uint64(0)
		for ; n > 0 && r.Err() == nil; n-- {
			delta := r.Uvarint()
			if delta > math.MaxInt32-prev {
				r.Failf("vertex id delta %d out of range", delta)
				break
			}
			prev += delta
			d = append(d, graph.VertexID(prev))
		}
		// Delta decoding yields ascending values by construction; dedup
		// defensively (zero deltas) so the sorted-distinct invariant holds
		// for any byte stream.
		ds.Domains[i] = slices.Compact(d)
	}
	return ds
}
