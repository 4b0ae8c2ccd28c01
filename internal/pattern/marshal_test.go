package pattern

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"fractal/internal/wire"
)

// wireLabelled is the labelled pattern of the golden payload.
func wireLabelled() *Pattern {
	b := NewBuilder(3)
	b.SetVertexLabel(0, 1)
	b.SetVertexLabel(1, 2)
	b.SetVertexLabel(2, -3)
	b.AddEdge(0, 1, 4)
	b.AddEdge(1, 2, 0)
	return b.Build()
}

// TestPatternWireGolden pins the wire form against bytes generated at the
// commit before it moved onto the shared reader/writer (PR 12), and checks
// that each payload decodes to an equal pattern consuming exactly its bytes.
func TestPatternWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      *Pattern
		golden string
	}{
		{"labelled", wireLabelled(), "0302040502000108010200"},
		{"triangle", Triangle(), "0301010103000101000201010201"},
	} {
		data := tc.p.AppendBinary(nil)
		if got := hex.EncodeToString(data); got != tc.golden {
			t.Errorf("%s: wire form %s, golden %s", tc.name, got, tc.golden)
		}
		// Self-delimiting: bytes after the pattern are left unread.
		back, n, err := PatternFromBinary(append(data, 0xAB))
		if err != nil || n != len(data) {
			t.Fatalf("%s: decode = (%d bytes, %v), want %d bytes", tc.name, n, err, len(data))
		}
		if !bytes.Equal(back.AppendBinary(nil), data) || back.Fingerprint() != tc.p.Fingerprint() {
			t.Errorf("%s: round trip changed the pattern: %v -> %v", tc.name, tc.p, back)
		}
	}
}

// TestPatternFromBinaryRejects covers the refusals: every truncation of a
// valid payload, out-of-range counts, and invalid or duplicated edges — each
// a *wire.Error, and a hostile count refused before anything is allocated
// for it.
func TestPatternFromBinaryRejects(t *testing.T) {
	valid := wireLabelled().AppendBinary(nil)
	cases := map[string][]byte{
		"vertex count > MaxVertices": {33},
		"vertex count bomb":          {0xff, 0xff, 0xff, 0xff, 0x0f},
		"edge count bomb":            {3, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"edge count > n*n":           {2, 0, 0, 5, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0},
		"edge endpoint out of range": {2, 0, 0, 1, 0, 2, 0},
		"self loop":                  {2, 0, 0, 1, 1, 1, 0},
		"duplicated edge":            {2, 0, 0, 2, 0, 1, 0, 0, 1, 0},
	}
	for cut := 0; cut < len(valid); cut++ {
		cases[fmt.Sprintf("truncated at %d", cut)] = valid[:cut]
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, _, err := PatternFromBinary(data)
		runtime.ReadMemStats(&after)
		var werr *wire.Error
		if p != nil || !errors.As(err, &werr) {
			t.Errorf("%s: decode = (%v, %v), want a *wire.Error", name, p, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(data), grew)
		}
		skipAgrees(t, data)
	}
}

// skipAgrees holds SkipBinary to ReadBinary on data: the same failure, or
// the same bytes read, which it returns without building a pattern.
func skipAgrees(t *testing.T, data []byte) {
	t.Helper()
	read, skip := wire.NewReader(data), wire.NewReader(data)
	ReadBinary(read)
	span := SkipBinary(skip)
	if fmt.Sprint(read.Err()) != fmt.Sprint(skip.Err()) || read.Offset() != skip.Offset() {
		t.Fatalf("%x: ReadBinary stops at %d with %v, SkipBinary at %d with %v", data, read.Offset(), read.Err(), skip.Offset(), skip.Err())
	}
	if read.Err() == nil && !bytes.Equal(span, data[:read.Offset()]) {
		t.Fatalf("%x: SkipBinary returned %x, want the %d bytes read", data, span, read.Offset())
	}
}

// TestSkipBinaryAllocatesNothing: checking a pattern's form builds nothing.
func TestSkipBinaryAllocatesNothing(t *testing.T) {
	data := wireLabelled().AppendBinary(nil)
	if n := testing.AllocsPerRun(10, func() { SkipBinary(wire.NewReader(data)) }); n != 0 {
		t.Errorf("SkipBinary allocates %v times per pattern", n)
	}
}

// FuzzPatternFromBinary: arbitrary bytes never panic and fail only with a
// *wire.Error, SkipBinary's verdict is ReadBinary's; whatever decodes survives a round trip through its own
// encoding unchanged. (Accepted input need not be canonical — edges in any
// order, padded varints — so the bytes themselves may differ.)
func FuzzPatternFromBinary(f *testing.F) {
	f.Add(wireLabelled().AppendBinary(nil))
	f.Add(Triangle().AppendBinary(nil))
	f.Add(Clique(5).AppendBinary(nil))
	f.Add([]byte{0, 0})
	f.Add([]byte{2, 0, 0, 2, 0, 1, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		skipAgrees(t, data)
		p, n, err := PatternFromBinary(data)
		if err != nil {
			var werr *wire.Error
			if !errors.As(err, &werr) {
				t.Fatalf("decode error %v is not a *wire.Error", err)
			}
			return
		}
		enc := p.AppendBinary(nil)
		back, m, err := PatternFromBinary(enc)
		if err != nil || m != len(enc) || !bytes.Equal(back.AppendBinary(nil), enc) {
			t.Fatalf("%x decoded to %v, whose encoding %x does not round-trip (%v)", data[:n], p, enc, err)
		}
	})
}
