package agg

import (
	"fmt"

	"fractal/internal/pattern"
	"fractal/internal/wire"
)

// Int64Sums is the scalar partial-sum store of the decomposition engine: a
// fixed-arity vector of int64 sums, index-aligned across cores, where entry
// i accumulates the i-th decomposition term's local-count sum. Each execution
// core fills its own Int64Sums during the sweep and the partials reduce
// through the same pipeline as every other aggregation (FoldToFrames for the
// per-core layer, FoldFrames at the master) — the decomposition engine adds
// no second reduction path.
type Int64Sums struct {
	Sums []int64
}

// NewInt64Sums returns a zeroed n-ary sum store.
func NewInt64Sums(n int) *Int64Sums { return &Int64Sums{Sums: make([]int64, n)} }

// Len implements Store: the arity of the vector (every slot is a live sum).
func (s *Int64Sums) Len() int { return len(s.Sums) }

// MergeFrom implements Store with elementwise addition, saturating like the
// sums themselves (pattern.AddSat).
func (s *Int64Sums) MergeFrom(other Store) error {
	o, ok := other.(*Int64Sums)
	if !ok {
		return fmt.Errorf("agg: merging %T into %T", other, s)
	}
	if len(o.Sums) != len(s.Sums) {
		return fmt.Errorf("agg: merging %d-ary Int64Sums into %d-ary", len(o.Sums), len(s.Sums))
	}
	for i, v := range o.Sums {
		s.Sums[i] = pattern.AddSat(s.Sums[i], v)
	}
	return nil
}

// Shippable implements Store: the vector always has a wire form.
func (s *Int64Sums) Shippable() error { return nil }

// Encode implements Store: one tag byte, the arity, then each sum as a
// zigzag varint.
func (s *Int64Sums) Encode() ([]byte, error) {
	w := wire.Writer{B: []byte{wireScalar}}
	w.Count(len(s.Sums))
	for _, v := range s.Sums {
		w.Varint(v)
	}
	return w.B, nil
}

// DecodeAndMerge implements Store, folding an encoded vector into the
// receiver.
func (s *Int64Sums) DecodeAndMerge(data []byte) error {
	r := payloadReader(data, wireScalar)
	if n := r.Count(); n != len(s.Sums) {
		r.Failf("%d-ary vector for a %d-ary store", n, len(s.Sums))
	}
	for i := range s.Sums {
		s.Sums[i] = pattern.AddSat(s.Sums[i], r.Varint())
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("agg: decoding into %d-ary Int64Sums: %w", len(s.Sums), err)
	}
	return nil
}

// FoldToFrames implements Store: the vector is its own key order, so the
// fold is the elementwise sum of parts, shipped as one frame.
func (s *Int64Sums) FoldToFrames(parts []Store, stop func() bool, emit func(frame []byte) error) error {
	sum := NewInt64Sums(len(s.Sums))
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := sum.MergeFrom(p); err != nil {
			return err
		}
	}
	if stop != nil && stop() {
		return ErrMergeCancelled
	}
	frame, _ := sum.Encode() // a vector always encodes
	return emit(frame)
}

// FoldFrames implements Store. A sender's vector is one frame; a second one
// would count its sums twice.
func (s *Int64Sums) FoldFrames(seqs [][][]byte, stop func() bool) (Store, error) {
	sum := NewInt64Sums(len(s.Sums))
	for _, frames := range seqs {
		if len(frames) > 1 {
			return nil, fmt.Errorf("agg: folding frames into %d-ary Int64Sums: %w", len(s.Sums),
				&wire.Error{Reason: fmt.Sprintf("%d frames from one sender, want one", len(frames))})
		}
		for _, f := range frames {
			if stop != nil && stop() {
				return nil, ErrMergeCancelled
			}
			if err := sum.DecodeAndMerge(f); err != nil {
				return nil, err
			}
		}
	}
	return sum, nil
}

// NewEmpty implements Store, preserving the arity.
func (s *Int64Sums) NewEmpty() Store { return NewInt64Sums(len(s.Sums)) }

// ApplyFilter implements Store as a no-op (sums carry no aggFilter).
func (s *Int64Sums) ApplyFilter() {}
