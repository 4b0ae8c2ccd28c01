package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Int(-7)
	w.Byte(0xAB)
	w.Bool(true)
	w.Str("héllo")
	w.Bytes([]byte{1, 0, 2})
	w.Bytes(nil)
	w.Count(0)

	r := NewReader(w.B)
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Byte(); v != 0xAB {
		t.Errorf("Byte = %x", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.Str(); v != "héllo" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 0, 2}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("empty Bytes = %v, want nil", v)
	}
	if v := r.Count(); v != 0 || r.Offset() != len(w.B) {
		t.Errorf("Count = %d at offset %d of %d", v, r.Offset(), len(w.B))
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

// TestViewAliasesInput: View is Bytes without the copy, and an append to the
// result cannot write into the field behind it.
func TestViewAliasesInput(t *testing.T) {
	var w Writer
	w.Bytes([]byte{7, 8, 9})
	w.Bytes(nil)
	w.Byte(42)
	r := NewReader(w.B)
	v := r.View()
	if !bytes.Equal(v, []byte{7, 8, 9}) || &v[0] != &w.B[1] || cap(v) != 3 {
		t.Errorf("View = %v (cap %d), want the input's own bytes 1..3, clipped", v, cap(v))
	}
	if e := r.View(); e != nil {
		t.Errorf("empty View = %v, want nil", e)
	}
	if r.Byte() != 42 || r.Done() != nil {
		t.Errorf("View left the reader at offset %d: %v", r.Offset(), r.Err())
	}
	if v := NewReader([]byte{5, 1}).View(); v != nil {
		t.Errorf("View past the input = %v", v)
	}
}

// TestFirstFailureIsSticky: after the first failure every read returns a
// zero value and the error keeps the first reason and offset.
func TestFirstFailureIsSticky(t *testing.T) {
	r := NewReader([]byte{5, 0x80}) // a byte, then a varint cut short
	if r.Byte() != 5 || r.Err() != nil {
		t.Fatal("first byte did not decode")
	}
	if v := r.Uvarint(); v != 0 {
		t.Errorf("truncated Uvarint = %d", v)
	}
	r.Failf("later complaint")
	if r.Varint() != 0 || r.Byte() != 0 || r.Str() != "" || r.Bytes() != nil || r.Count() != 0 {
		t.Error("reads after a failure returned data")
	}
	var werr *Error
	if err := r.Done(); !errors.As(err, &werr) || werr.Offset != 1 || werr.Reason != "truncated or overlong varint" {
		t.Errorf("Done = %v, want the varint failure at offset 1", err)
	}
}

// TestCountBoundedByRemainingBytes: a count or length may not exceed the
// bytes left, which is what keeps decoders from allocating for elements
// that cannot be there.
func TestCountBoundedByRemainingBytes(t *testing.T) {
	r := NewReader([]byte{2, 'a', 'b'})
	if n := r.Count(); n != 2 || r.Err() != nil {
		t.Errorf("Count = %d, %v; want 2", n, r.Err())
	}
	for name, data := range map[string][]byte{
		"one past":  {3, 'a', 'b'},
		"huge":      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"no body":   {1},
		"overlong":  {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"truncated": {0x80},
	} {
		r := NewReader(data)
		if s := r.Str(); s != "" || r.Err() == nil {
			t.Errorf("%s: Str = %q, err %v", name, s, r.Err())
		}
	}
	if err := NewReader([]byte{0, 9}).Done(); err == nil {
		t.Error("Done accepted unread bytes")
	}
}
