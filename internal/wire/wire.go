// Package wire is the one leaf reader/writer under every byte form that
// crosses a process boundary: the control messages of internal/sched, the
// aggregation payloads of internal/agg and the pattern form of
// internal/pattern (DESIGN.md, "Wire format"). The vocabulary is closed:
// LEB128 varints (zigzag for signed values), single bytes, and
// length-prefixed strings, byte slices and element counts. Shapes are fixed
// field sequences owned by the codecs; nothing here is self-describing.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Writer appends an encoding to B. The zero value is ready; to extend an
// existing buffer, start from Writer{B: buf}.
type Writer struct{ B []byte }

func (w *Writer) Uvarint(v uint64) { w.B = binary.AppendUvarint(w.B, v) }
func (w *Writer) Varint(v int64)   { w.B = binary.AppendVarint(w.B, v) }
func (w *Writer) Int(v int)        { w.Varint(int64(v)) }
func (w *Writer) Byte(v byte)      { w.B = append(w.B, v) }

// Count writes the element count of a sequence (or a byte length).
func (w *Writer) Count(n int) { w.Uvarint(uint64(n)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

func (w *Writer) Str(s string) {
	w.Count(len(s))
	w.B = append(w.B, s...)
}

func (w *Writer) Bytes(p []byte) {
	w.Count(len(p))
	w.B = append(w.B, p...)
}

// Error is the failure of every decoder built on Reader: what was wrong and
// at which byte of the input. Input may come from an arbitrary peer, so
// malformed bytes are always this error, never a panic.
type Error struct {
	Offset int
	Reason string
}

func (e *Error) Error() string { return fmt.Sprintf("wire: %s at offset %d", e.Reason, e.Offset) }

// Reader consumes an encoding. The first failure is sticky: every later
// read returns a zero value, so decoders read their whole field sequence and
// check Err (or Done) once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over data; decoded strings and byte slices are
// copies, so data may be reused afterwards (View and Since are the
// exceptions).
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Failf records a failure at the current offset unless one is already
// recorded. Codecs call it for values that decode but are out of range.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = &Error{Offset: r.off, Reason: fmt.Sprintf(format, args...)}
	}
}

// Err returns the first failure.
func (r *Reader) Err() error { return r.err }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

// Done returns the first failure, treating unread trailing bytes as one.
func (r *Reader) Done() error {
	if n := len(r.data) - r.off; n != 0 {
		r.Failf("%d trailing bytes", n)
	}
	return r.err
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Failf("truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed value (binary.AppendVarint's form).
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (r *Reader) Int() int { return int(r.Varint()) }

func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.Failf("truncated")
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Count reads the element count of a sequence (or a byte length). Every
// element occupies at least one byte, so a count beyond the bytes that
// remain is a failure here — before the caller allocates anything for it.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.data)-r.off) {
		r.Failf("count %d exceeds the %d bytes that remain", n, len(r.data)-r.off)
		return 0
	}
	return int(n)
}

func (r *Reader) take() []byte {
	n := r.Count()
	p := r.data[r.off : r.off+n]
	r.off += n
	return p
}

func (r *Reader) Str() string { return string(r.take()) }

// Bytes returns a copy (nil when empty).
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.take()...) }

// View is Bytes without the copy: the result aliases the reader's input
// (capacity clipped to the field) and is valid, read-only, for as long as
// that is.
func (r *Reader) View() []byte {
	p := r.take()
	if len(p) == 0 {
		return nil
	}
	return p[:len(p):len(p)]
}

// Since returns the bytes read from offset off (an earlier Offset) on,
// aliasing the reader's input as View does; nil once the reader has failed.
func (r *Reader) Since(off int) []byte {
	if r.err != nil {
		return nil
	}
	return r.data[off:r.off:r.off]
}
