package agg

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/wire"
)

// TestShippableShapes pins the closed set: the three string-keyed shapes and
// Int64Sums ship; everything else is refused with the same typed error by
// Shippable, Encode and DecodeAndMerge, naming K and V.
func TestShippableShapes(t *testing.T) {
	type opaque struct{ C chan int }
	cases := []struct {
		name       string
		store      Store
		key, value string // "" when the shape ships
	}{
		{"string-int64", New[string, int64](SumInt64), "", ""},
		{"pattern-count", New[string, PatternCount](ReducePatternCount), "", ""},
		{"domain-support", New[string, *DomainSupport](ReduceDomainSupport), "", ""},
		{"int64-sums", NewInt64Sums(2), "", ""},
		{"int64-keys", New[int64, int64](SumInt64), "int64", "int64"},
		{"uint8-keys", New[uint8, int64](SumInt64), "uint8", "int64"},
		{"string-float", New[string, float64](func(a, b float64) float64 { return a + b }), "string", "float64"},
		{"string-struct", New[string, opaque](func(a, b opaque) opaque { return a }), "string", "agg.opaque"},
		{"string-any", New[string, any](func(a, b any) any { return a }), "string", "interface {}"},
	}
	valid, err := New[string, int64](SumInt64).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		_, encErr := tc.store.Encode()
		errs := map[string]error{
			"Shippable":      tc.store.Shippable(),
			"Encode":         encErr,
			"DecodeAndMerge": tc.store.NewEmpty().DecodeAndMerge(valid),
		}
		if tc.key == "" {
			if errs["Shippable"] != nil || encErr != nil {
				t.Errorf("%s: Shippable()=%v Encode()=%v, want nil", tc.name, errs["Shippable"], encErr)
			}
			continue
		}
		for op, err := range errs {
			var shape *UnsupportedShapeError
			if !errors.As(err, &shape) {
				t.Errorf("%s: %s = %v, want *UnsupportedShapeError", tc.name, op, err)
				continue
			}
			if shape.Key != tc.key || shape.Value != tc.value {
				t.Errorf("%s: %s names %s -> %s, want %s -> %s", tc.name, op, shape.Key, shape.Value, tc.key, tc.value)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.key) || !strings.Contains(msg, tc.value) {
				t.Errorf("%s: message %q does not name K and V", tc.name, msg)
			}
		}
	}
}

func TestBinaryRoundTripPatternCount(t *testing.T) {
	p := pattern.Triangle()
	a := New[string, PatternCount](ReducePatternCount)
	a.Add("tri", PatternCount{Pat: p, Count: 42})
	a.Add("anon", PatternCount{Count: -7}) // nil pattern must survive
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b := a.NewEmpty().(*Aggregation[string, PatternCount])
	if err := b.DecodeAndMerge(data); err != nil {
		t.Fatal(err)
	}
	tri, _ := b.Get("tri")
	if tri.Count != 42 || tri.Pat == nil || tri.Pat.NumEdges() != 3 || tri.Pat.NumVertices() != 3 {
		t.Errorf("tri round trip = %+v", tri)
	}
	anon, _ := b.Get("anon")
	if anon.Count != -7 || anon.Pat != nil {
		t.Errorf("anon round trip = %+v", anon)
	}
}

func TestBinaryRoundTripDomainSupport(t *testing.T) {
	p := pattern.Triangle()
	perm := p.Canonical().Perm
	a := New[string, *DomainSupport](ReduceDomainSupport)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		vs := []graph.VertexID{
			graph.VertexID(rng.Intn(1000)),
			graph.VertexID(1000 + rng.Intn(1000)),
			graph.VertexID(2000 + rng.Intn(1000)),
		}
		a.Add("tri", ScratchDomainSupport(p, 5, vs, perm))
	}
	ds := &DomainSupport{Threshold: 1, Domains: [][]graph.VertexID{{7, 9}}} // no pattern
	a.Add("anon", ds)

	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b := a.NewEmpty().(*Aggregation[string, *DomainSupport])
	if err := b.DecodeAndMerge(data); err != nil {
		t.Fatal(err)
	}
	want, _ := a.Get("tri")
	got, _ := b.Get("tri")
	if got.Threshold != 5 || got.Pat == nil || got.Support() != want.Support() {
		t.Errorf("tri round trip: threshold=%d pat=%v support=%d want %d",
			got.Threshold, got.Pat, got.Support(), want.Support())
	}
	for pos := range want.Domains {
		if !bytes.Equal(vertexBytes(want.Sorted(pos)), vertexBytes(got.Sorted(pos))) {
			t.Errorf("position %d domains differ: %v vs %v", pos, want.Sorted(pos), got.Sorted(pos))
		}
	}
	gotAnon, _ := b.Get("anon")
	if gotAnon.Pat != nil || gotAnon.Support() != 2 {
		t.Errorf("anon round trip = %+v", gotAnon)
	}

	// Re-encoding the decoded store must reproduce the payload byte for byte
	// (sorted keys + compacted domains make the form canonical).
	data2, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("binary form is not canonical across a round trip")
	}
}

func vertexBytes(vs []graph.VertexID) []byte {
	out := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return out
}

// TestBinarySmallerThanGob is the wire-size acceptance pin: on realistic
// store contents the payload must be strictly smaller than the gob stream of
// the same map (gob is kept here, test-side, as the reference).
func TestBinarySmallerThanGob(t *testing.T) {
	gobBytes := func(m any) int {
		var buf bytes.Buffer
		buf.WriteByte(0) // the tag byte both forms carried
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}

	p := pattern.Triangle()
	perm := p.Canonical().Perm
	rng := rand.New(rand.NewSource(17))

	counts := New[string, int64](SumInt64)
	for i := 0; i < 200; i++ {
		counts.Add(fmt.Sprintf("pattern-code-%04d", i), int64(rng.Intn(1_000_000)))
	}
	supports := New[string, *DomainSupport](ReduceDomainSupport)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("class-%02d", i)
		for j := 0; j < 50; j++ {
			vs := []graph.VertexID{
				graph.VertexID(rng.Intn(4096)),
				graph.VertexID(4096 + rng.Intn(4096)),
				graph.VertexID(8192 + rng.Intn(4096)),
			}
			supports.Add(key, ScratchDomainSupport(p, 10, vs, perm))
		}
	}

	for name, pair := range map[string]struct {
		store Store
		gob   int
	}{
		"int64-counts":    {counts, gobBytes(counts.Entries())},
		"domain-supports": {supports, gobBytes(gobSupports(supports.Entries()))},
	} {
		data, err := pair.store.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) >= pair.gob {
			t.Errorf("%s: binary %d bytes >= gob %d bytes", name, len(data), pair.gob)
		} else {
			t.Logf("%s: binary %d bytes vs gob %d bytes (%.1fx smaller)",
				name, len(data), pair.gob, float64(pair.gob)/float64(len(data)))
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	a := New[string, int64](SumInt64)
	a.Add("key", 600)
	valid, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"unknown tag":  {9, 1, 2, 3},
		"truncated":    valid[:len(valid)-1],
		"length bomb":  {wireCount, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"string bomb":  {wireCount, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"bare payload": {wireCount},
		"repeated key": {wireCount, 2, 1, 'k', 2, 1, 'k', 4},
		"keys descend": {wireCount, 2, 1, 'k', 2, 1, 'j', 4},
	}
	for name, data := range cases {
		b := a.NewEmpty()
		if err := b.DecodeAndMerge(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// TestHostileCountsFailBeforeAllocating is the regression test of the
// count-bomb fix on the aggregation side: a tiny body announcing a huge
// entry, domain or vertex count is refused by the count itself, with a
// *wire.Error, before anything is allocated for it.
func TestHostileCountsFailBeforeAllocating(t *testing.T) {
	bomb := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // uvarint 2^32-1
	cases := map[string]struct {
		store Store
		data  []byte
	}{
		"entry count":  {New[string, int64](SumInt64), append([]byte{wireCount}, bomb...)},
		"domain count": {New[string, *DomainSupport](ReduceDomainSupport), append([]byte{wireDomainSupport, 1, 1, 'k', 2, 0}, bomb...)},
		"vertex count": {New[string, *DomainSupport](ReduceDomainSupport), append([]byte{wireDomainSupport, 1, 1, 'k', 2, 0, 1}, bomb...)},
		"sums arity":   {NewInt64Sums(3), append([]byte{wireScalar}, bomb...)},
	}
	for name, tc := range cases {
		var werr *wire.Error
		if err := tc.store.DecodeAndMerge(tc.data); !errors.As(err, &werr) {
			t.Errorf("%s: err = %v, want *wire.Error", name, err)
		} else if !strings.Contains(werr.Reason, "exceeds") {
			t.Errorf("%s: refused by %q, want the count check", name, werr.Reason)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.store.DecodeAndMerge(tc.data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(tc.data), grew)
		}
	}
}

// TestWireGolden pins the payload bytes of every aggregation shape against
// payloads generated at the commit before the codecs moved onto the shared
// reader/writer (PR 12): the wire form did not change, except for the tag
// byte, one per value type since PR 33 (pattern counts 3, supports 4; it
// was 1 for every aggregation). Each payload also decodes and re-encodes to
// itself, through DecodeAndMerge and through Decode, which needs no
// prototype.
func TestWireGolden(t *testing.T) {
	p := goldenPattern()
	counts := New[string, int64](SumInt64)
	counts.Add("a", 3)
	counts.Add("bb", -7)
	counts.Add("", 1<<40)
	pcs := New[string, PatternCount](ReducePatternCount)
	pcs.Add("k1", PatternCount{Pat: p, Count: 5})
	pcs.Add("k0", PatternCount{Count: -2})
	sups := New[string, *DomainSupport](ReduceDomainSupport)
	sups.Add("s", &DomainSupport{Pat: p, Threshold: 2, Domains: [][]graph.VertexID{{1, 5, 9}, {2, 300}, {}}})
	sups.Add("anon", &DomainSupport{Threshold: -1, Domains: [][]graph.VertexID{{7}}})
	sums := NewInt64Sums(4)
	copy(sums.Sums, []int64{0, 1, -1, 1 << 50})
	for _, tc := range []struct {
		name   string
		store  Store
		golden string
	}{
		{"counts", counts, "0103008080808080400161060262620d"},
		{"patternCounts", pcs, "0302026b300003026b310103020405020001080102000a"},
		{"supports", sups, "040204616e6f6e010001010701730401030204050200010801020003030104040202aa0200"},
		{"sums", sums, "02040002018080808080808004"},
		{"emptyCounts", New[string, int64](SumInt64), "0100"},
	} {
		data, err := tc.store.Encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(data); got != tc.golden {
			t.Errorf("%s: payload %s, golden %s", tc.name, got, tc.golden)
		}
		back := tc.store.NewEmpty()
		if err := back.DecodeAndMerge(data); err != nil {
			t.Fatalf("%s: decoding the golden payload: %v", tc.name, err)
		}
		if again, _ := back.Encode(); !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoded %x, want %x", tc.name, again, data)
		}
		rebuilt, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", tc.name, err)
		}
		if reflect.TypeOf(rebuilt) != reflect.TypeOf(tc.store) {
			t.Errorf("%s: Decode built a %T, want %T", tc.name, rebuilt, tc.store)
		}
		if again, _ := rebuilt.Encode(); !bytes.Equal(again, data) {
			t.Errorf("%s: Decode re-encoded %x, want %x", tc.name, again, data)
		}
	}
}

// goldenPattern is the labelled pattern of the golden payloads.
func goldenPattern() *pattern.Pattern {
	b := pattern.NewBuilder(3)
	b.SetVertexLabel(0, 1)
	b.SetVertexLabel(1, 2)
	b.SetVertexLabel(2, -3)
	b.AddEdge(0, 1, 4)
	b.AddEdge(1, 2, 0)
	return b.Build()
}

// FuzzBinaryCodec drives arbitrary bytes through DecodeAndMerge for every
// shippable shape and through Decode (decoders must fail with a *wire.Error,
// never panic or overallocate), checks that whatever decodes re-encodes
// without error, and that Decode agrees with DecodeAndMerge into the
// prototype the payload's tag names: both accept it or both refuse it, and
// they hold the same store.
func FuzzBinaryCodec(f *testing.F) {
	p := pattern.Triangle()
	perm := p.Canonical().Perm
	counts := New[string, int64](SumInt64)
	counts.Add("abc", 123)
	counts.Add("def", -9)
	pcs := New[string, PatternCount](ReducePatternCount)
	pcs.Add("tri", PatternCount{Pat: p, Count: 7})
	sups := New[string, *DomainSupport](ReduceDomainSupport)
	sups.Add("tri", NewDomainSupport(p, 2, []graph.VertexID{5, 1, 9}, perm))
	sums := NewInt64Sums(3)
	copy(sums.Sums, []int64{4, -5, 1 << 40})
	for _, s := range []Store{counts, pcs, sups, sums} {
		data, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{wireCount, 2, 1, 'a', 1, 1, 'b', 2})
	// One key twice, with supports of different arity (found by this target).
	f.Add([]byte("\x04\x03\x01\x0100\x00\x01\x0100\x01\x010\x01000\x01\x010"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var werr *wire.Error
		rebuilt, decErr := Decode(data)
		if decErr != nil && !errors.As(decErr, &werr) {
			t.Errorf("Decode error %v is not a *wire.Error", decErr)
		}
		stores := []Store{
			New[string, int64](SumInt64),
			New[string, PatternCount](ReducePatternCount),
			New[string, *DomainSupport](ReduceDomainSupport),
			NewInt64Sums(3),
		}
		matched := false
		for _, s := range stores {
			if err := s.DecodeAndMerge(data); err != nil {
				if !errors.As(err, &werr) {
					t.Errorf("%T: decode error %v is not a *wire.Error", s, err)
				}
				continue
			}
			want, err := s.Encode()
			if err != nil {
				t.Errorf("decoded store fails to re-encode: %v", err)
			}
			matched = true
			if decErr != nil {
				t.Fatalf("%T decodes a payload Decode refuses: %v", s, decErr)
			}
			if got, _ := rebuilt.Encode(); reflect.TypeOf(rebuilt) != reflect.TypeOf(s) || !bytes.Equal(got, want) {
				t.Fatalf("Decode built %T holding %x, DecodeAndMerge %T holding %x", rebuilt, got, s, want)
			}
		}
		// Decode takes a vector of any arity; the prototype only its own.
		if sums, ok := rebuilt.(*Int64Sums); decErr == nil && !matched && (!ok || sums.Len() == 3) {
			t.Fatalf("Decode accepts a %T payload no prototype decodes", rebuilt)
		}
	})
}

// TestDecodeIntoStoredValueTakesItsPattern: a stored support without a
// pattern that absorbs a decoded one takes the decoded pattern, as "first
// pattern wins" has it — built, not a view of the payload it came in.
func TestDecodeIntoStoredValueTakesItsPattern(t *testing.T) {
	p := pattern.Triangle()
	perm := p.Canonical().Perm
	withPat := New[string, *DomainSupport](ReduceDomainSupport)
	withPat.Add("k", NewDomainSupport(p, 1, []graph.VertexID{1, 2, 3}, perm))
	data, err := withPat.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b := New[string, *DomainSupport](ReduceDomainSupport)
	b.Add("k", NewDomainSupport(nil, 1, []graph.VertexID{4, 5, 6}, perm))
	if err := b.DecodeAndMerge(data); err != nil {
		t.Fatal(err)
	}
	clear(data)
	got, _ := b.Get("k")
	if got.Pat == nil || got.Pat.Canonical().Code != p.Canonical().Code || got.Support() != 2 {
		t.Fatalf("merged %v with pattern %v, want the decoded triangle and support 2", got, got.Pat)
	}
}
