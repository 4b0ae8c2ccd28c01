package agg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fractal/internal/graph"
	"fractal/internal/pattern"
	"fractal/internal/wire"
	"fractal/internal/workload"
)

// foldShape builds the per-core stores of one shippable shape from a stream
// of embeddings; calling mk twice with the same arguments gives two equal
// sets (every fold consumes its inputs).
type foldShape struct {
	name string
	mk   func(cores int, stream []oracleEmbedding) []Store
}

func spread[V any](cores int, stream []oracleEmbedding, reduce func(V, V) V, value func(oracleEmbedding) V) []Store {
	out := make([]Store, cores)
	typed := make([]*Aggregation[string, V], cores)
	for i := range out {
		typed[i] = New[string, V](reduce)
		out[i] = typed[i]
	}
	for i, e := range stream {
		typed[i%cores].Add(e.code, value(e))
	}
	return out
}

var foldShapes = []foldShape{
	{"int64", func(cores int, stream []oracleEmbedding) []Store {
		return spread(cores, stream, SumInt64, func(oracleEmbedding) int64 { return 1 })
	}},
	{"PatternCount", func(cores int, stream []oracleEmbedding) []Store {
		return spread(cores, stream, ReducePatternCount, func(e oracleEmbedding) PatternCount {
			return PatternCount{Pat: e.pat, Count: 1}
		})
	}},
	{"DomainSupport", func(cores int, stream []oracleEmbedding) []Store {
		return spread(cores, stream, ReduceDomainSupport, func(e oracleEmbedding) *DomainSupport {
			return ScratchDomainSupport(e.pat, 2, e.vs, e.perm)
		})
	}},
	{"Int64Sums", func(cores int, stream []oracleEmbedding) []Store {
		out := make([]Store, cores)
		for i := range out {
			out[i] = NewInt64Sums(4)
		}
		for i, e := range stream {
			out[i%cores].(*Int64Sums).Sums[len(e.vs)%4] += int64(len(e.code))
		}
		return out
	}},
}

// baEmbeddings draws canonicalized random embeddings from a labelled BA
// graph: a few hundred pattern classes with skewed frequencies, like an FSM
// level's. Every embedding of a class carries the class's first pattern as
// its representative (what Context.PatternRep guarantees a job), so "first
// pattern wins" picks the same one whichever core a key is met at first.
func baEmbeddings(vertices, count int, seed int64) []oracleEmbedding {
	g := workload.SkewLabels(workload.BarabasiAlbert("fold", vertices, 2, 5, seed), 5, seed)
	rng := rand.New(rand.NewSource(seed))
	reps := map[string]*pattern.Pattern{}
	var out []oracleEmbedding
	for len(out) < count {
		vs, ok := randomEmbedding(g, 2+rng.Intn(3), rng)
		if !ok {
			continue
		}
		p := pattern.FromEmbedding(g, vs, nil)
		canon := p.Canonical()
		if reps[canon.Code] == nil {
			reps[canon.Code] = p
		}
		out = append(out, oracleEmbedding{code: canon.Code, pat: reps[canon.Code], vs: vs, perm: canon.Perm})
	}
	return out
}

// foldWith is FoldToFrames at a given frame limit (the limit is a constant of
// the package; only tests vary it).
func foldWith(proto Store, parts []Store, limit int, emit func([]byte) error) error {
	switch a := proto.(type) {
	case *Aggregation[string, int64]:
		return a.foldToFrames(parts, limit, nil, emit)
	case *Aggregation[string, PatternCount]:
		return a.foldToFrames(parts, limit, nil, emit)
	case *Aggregation[string, *DomainSupport]:
		return a.foldToFrames(parts, limit, nil, emit)
	}
	return proto.FoldToFrames(parts, nil, emit)
}

// collectFrames runs the worker-side fold and returns copies of its frames.
func collectFrames(t testing.TB, parts []Store, limit int) [][]byte {
	t.Helper()
	var frames [][]byte
	err := foldWith(parts[0].NewEmpty(), parts, limit, func(f []byte) error {
		frames = append(frames, bytes.Clone(f))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// frameEntries splits a payload into its entry count and its entry bytes.
func frameEntries(t testing.TB, frame []byte) (int, []byte) {
	t.Helper()
	n, w := binary.Uvarint(frame[1:])
	if w <= 0 {
		t.Fatalf("frame % x has no entry count", frame)
	}
	return int(n), frame[1+w:]
}

func encodeOf(t testing.TB, s Store) []byte {
	t.Helper()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func keysOf(s Store) []string {
	var keys []string
	switch a := s.(type) {
	case *Aggregation[string, int64]:
		a.Range(func(k string, _ int64) bool { keys = append(keys, k); return true })
	case *Aggregation[string, PatternCount]:
		a.Range(func(k string, _ PatternCount) bool { keys = append(keys, k); return true })
	case *Aggregation[string, *DomainSupport]:
		a.Range(func(k string, _ *DomainSupport) bool { keys = append(keys, k); return true })
	}
	slices.Sort(keys)
	return keys
}

// TestFoldFramesGolden pins the worker-side fold to the path it replaced:
// the frames' entries, concatenated, are byte for byte the entries of
// MergeTree(cores).Encode(); every frame is a payload of its own; and key
// ranges ascend strictly from frame to frame.
func TestFoldFramesGolden(t *testing.T) {
	stream := baEmbeddings(3000, 50000, 7)
	for _, shape := range foldShapes {
		for _, cores := range []int{1, 2, 3, 5} {
			merged, err := MergeTree(shape.mk(cores, stream), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeOf(t, merged)
			wantCount, wantEntries := frameEntries(t, want)
			for _, limit := range []int{1, 1 << 10, FrameLimit} {
				t.Run(fmt.Sprintf("%s/%dcores/limit%d", shape.name, cores, limit), func(t *testing.T) {
					frames := collectFrames(t, shape.mk(cores, stream), limit)
					if shape.name == "Int64Sums" {
						if len(frames) != 1 || !bytes.Equal(frames[0], want) {
							t.Fatalf("%d frames, want the one payload Encode writes", len(frames))
						}
						return
					}
					var entries []byte
					count, prev := 0, ""
					for i, f := range frames {
						if f[0] != want[0] {
							t.Fatalf("frame %d has tag %d", i, f[0])
						}
						n, body := frameEntries(t, f)
						// A frame closes with the entry that reaches the limit.
						if limit == 1 && n != 1 || i < len(frames)-1 && len(body) < limit {
							t.Errorf("frame %d of %d: %d entries in %d bytes at limit %d", i, len(frames), n, len(body), limit)
						}
						count += n
						entries = append(entries, body...)
						alone := merged.NewEmpty()
						if err := alone.DecodeAndMerge(f); err != nil {
							t.Fatalf("frame %d alone does not decode: %v", i, err)
						}
						if !bytes.Equal(encodeOf(t, alone), f) {
							t.Fatalf("frame %d alone does not round-trip", i)
						}
						keys := keysOf(alone)
						if len(keys) > 0 && i > 0 && keys[0] <= prev {
							t.Fatalf("frame %d starts at key %q, not above frame %d's last %q", i, keys[0], i-1, prev)
						}
						if len(keys) > 0 {
							prev = keys[len(keys)-1]
						}
					}
					if count != wantCount || !bytes.Equal(entries, wantEntries) {
						t.Fatalf("%d frames: %d entries in %d bytes, MergeTree+Encode writes %d in %d",
							len(frames), count, len(entries), wantCount, len(wantEntries))
					}
					if limit == FrameLimit && len(wantEntries) < limit && len(frames) != 1 {
						t.Errorf("%d bytes of entries left in %d frames, want one", len(wantEntries), len(frames))
					}
				})
			}
		}
	}
	t.Run("empty", func(t *testing.T) {
		a := New[string, int64](SumInt64)
		frames := collectFrames(t, []Store{a.NewEmpty(), nil, a.NewEmpty()}, FrameLimit)
		if len(frames) != 1 || !bytes.Equal(frames[0], encodeOf(t, a)) {
			t.Fatalf("empty cores fold to %x, want the one empty payload", frames)
		}
	})
}

// decodeMergeFilter is the master's tail as it was: every frame decoded into
// a store, the stores merged, the filter applied last.
func decodeMergeFilter(t testing.TB, proto Store, seqs [][][]byte) Store {
	t.Helper()
	var stores []Store
	for _, frames := range seqs {
		for _, f := range frames {
			s := proto.NewEmpty()
			if err := s.DecodeAndMerge(f); err != nil {
				t.Fatal(err)
			}
			stores = append(stores, s)
		}
	}
	merged, err := MergeTree(stores, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged == nil {
		merged = proto.NewEmpty()
	}
	merged.ApplyFilter()
	return merged
}

// TestFoldMatchesDecodeMergeFilter pins the master-side fold to the path it
// replaced: same survivors, same Encode bytes.
func TestFoldMatchesDecodeMergeFilter(t *testing.T) {
	stream := baEmbeddings(400, 4000, 11)
	protos := map[string][2]Store{ // unfiltered, filtered
		"int64": {New[string, int64](SumInt64),
			New[string, int64](SumInt64).WithFilter(func(_ string, v int64) bool { return v >= 5 })},
		"PatternCount": {New[string, PatternCount](ReducePatternCount),
			New[string, PatternCount](ReducePatternCount).WithFilter(func(_ string, v PatternCount) bool { return v.Count%2 == 0 })},
		"DomainSupport": {New[string, *DomainSupport](ReduceDomainSupport),
			New[string, *DomainSupport](ReduceDomainSupport).WithFilter(func(_ string, v *DomainSupport) bool { return v.Support() >= 4 })},
		"Int64Sums": {NewInt64Sums(4), NewInt64Sums(4)},
	}
	for _, shape := range foldShapes {
		for _, workers := range []int{1, 2, 4} {
			for fi, filtered := range []string{"plain", "filtered"} {
				t.Run(fmt.Sprintf("%s/%dworkers/%s", shape.name, workers, filtered), func(t *testing.T) {
					proto := protos[shape.name][fi]
					// Worker w holds every w-th slice of the stream on two
					// cores; the last worker additionally holds a key of its
					// own, and one more worker holds nothing.
					seqs := make([][][]byte, workers+1)
					for w := 0; w < workers; w++ {
						var part []oracleEmbedding
						for i := w; i < len(stream); i += workers {
							part = append(part, stream[i])
						}
						if w == workers-1 {
							only := part[0]
							only.code = "only at the last worker"
							part = append(part, only, only, only, only, only, only)
						}
						seqs[w] = collectFrames(t, shape.mk(2, part), 1<<10)
					}
					seqs[workers] = collectFrames(t, shape.mk(2, nil), 1<<10)
					want := decodeMergeFilter(t, proto, seqs)
					got, err := proto.FoldFrames(seqs, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got.Len() != want.Len() || !bytes.Equal(encodeOf(t, got), encodeOf(t, want)) {
						t.Fatalf("fold keeps %d entries, decode+MergeTree+ApplyFilter %d, or their bytes differ", got.Len(), want.Len())
					}
					if fi == 1 && shape.name != "Int64Sums" && want.Len() >= decodeMergeFilter(t, protos[shape.name][0], seqs).Len() {
						t.Fatal("the filter dropped nothing: the case tests nothing")
					}
				})
			}
		}
	}
}

// TestFoldFramesRefusesDisorder: what a sender promises about its frames is
// checked, with a typed error and nothing returned.
func TestFoldFramesRefusesDisorder(t *testing.T) {
	frame := func(kv ...any) []byte {
		a := New[string, int64](SumInt64)
		for i := 0; i < len(kv); i += 2 {
			a.Add(kv[i].(string), int64(kv[i+1].(int)))
		}
		return encodeOf(t, a)
	}
	proto := New[string, int64](SumInt64)
	for name, seqs := range map[string][][][]byte{
		"repeated key across frames":  {{frame("a", 1, "b", 2), frame("b", 3)}},
		"descending key across":       {{frame("m", 1), frame("c", 3)}},
		"descending key within":       {{{wireCount, 2, 1, 'b', 2, 1, 'a', 2}}},
		"truncated last frame":        {{frame("a", 1), frame("b", 2)[:3]}},
		"trailing bytes":              {{append(frame("a", 1), 0)}},
		"bad tag":                     {{{wireScalar, 0}}},
		"count beyond the frame":      {{{wireCount, 9, 1, 'a', 2}}},
		"second sender out of order":  {{frame("a", 1)}, {frame("z", 1), frame("y", 1)}},
		"two vectors from one sender": nil,
	} {
		t.Run(name, func(t *testing.T) {
			var got Store
			var err error
			if seqs == nil {
				v := encodeOf(t, NewInt64Sums(2))
				got, err = NewInt64Sums(2).FoldFrames([][][]byte{{v, v}}, nil)
			} else {
				got, err = proto.FoldFrames(seqs, nil)
			}
			var werr *wire.Error
			if got != nil || !errors.As(err, &werr) {
				t.Fatalf("FoldFrames = %v, %v; want no store and a *wire.Error", got, err)
			}
		})
	}
	// The same keys in order fold: the refusals above are about order only.
	got, err := proto.FoldFrames([][][]byte{{frame("a", 1, "b", 2), frame("c", 3)}, {frame("b", 5)}}, nil)
	if err != nil || !bytes.Equal(encodeOf(t, got), frame("a", 1, "b", 7, "c", 3)) {
		t.Fatalf("ordered frames: %v", err)
	}
}

// TestFoldStops: the stop predicate is polled per frame at both ends.
func TestFoldStops(t *testing.T) {
	stream := baEmbeddings(400, 500, 3)
	mk := foldShapes[0].mk
	frames := collectFrames(t, mk(2, stream), 1)
	polls := 0
	stop := func() bool { polls++; return polls > 3 }
	if _, err := New[string, int64](SumInt64).FoldFrames([][][]byte{frames}, stop); !errors.Is(err, ErrMergeCancelled) {
		t.Errorf("FoldFrames stopped at the fourth frame: %v, want ErrMergeCancelled", err)
	}
	polls, emitted := 0, 0
	err := New[string, int64](SumInt64).foldToFrames(mk(2, stream), 1, stop, func([]byte) error { emitted++; return nil })
	if !errors.Is(err, ErrMergeCancelled) || emitted != 3 {
		t.Errorf("foldToFrames: %d frames out, then %v; want 3 and ErrMergeCancelled", emitted, err)
	}
}

// TestFoldToFramesAllocations: the worker-side fold allocates per call (the
// sorted key slices, the sources, the frame buffer as it grows), never per
// entry, for the shapes whose reduction does not allocate.
func TestFoldToFramesAllocations(t *testing.T) {
	stream := baEmbeddings(400, 3000, 5)
	for _, shape := range foldShapes[:2] {
		const runs = 5
		parts := make([][]Store, runs+1) // AllocsPerRun warms up once
		for i := range parts {
			parts[i] = shape.mk(2, stream)
		}
		keys := 0
		for _, p := range parts[0] {
			keys += p.Len()
		}
		proto, i := parts[0][0].NewEmpty(), 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := proto.FoldToFrames(parts[i], nil, func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 40 {
			t.Errorf("%s: %v allocations folding %d keys, want a constant number per call", shape.name, allocs, keys)
		}
	}
}

// FuzzFoldFrames drives arbitrary bytes through the master-side fold as two
// senders' frame sequences, for every shippable shape: a failure is a
// *wire.Error, never a panic or an allocation beyond the input's size, and
// whatever folds is what decoding every frame and merging gives — in
// particular no key that occurs in two frames of one sender ever folds.
func FuzzFoldFrames(f *testing.F) {
	p := pattern.Triangle()
	perm := p.Canonical().Perm
	counts := func(kv ...any) []byte {
		a := New[string, int64](SumInt64)
		for i := 0; i < len(kv); i += 2 {
			a.Add(kv[i].(string), int64(kv[i+1].(int)))
		}
		data, _ := a.Encode()
		return data
	}
	sups := New[string, *DomainSupport](ReduceDomainSupport)
	sups.Add("tri", NewDomainSupport(p, 2, []graph.VertexID{5, 1, 9}, perm))
	supFrame, _ := sups.Encode()
	pcs := New[string, PatternCount](ReducePatternCount)
	pcs.Add("tri", PatternCount{Pat: p, Count: 7})
	pcFrame, _ := pcs.Encode()
	sums, _ := NewInt64Sums(3).Encode()
	f.Add(counts("a", 1, "b", 2), counts("c", 3), counts("b", 4))
	f.Add(counts("a", 1, "b", 2), counts("b", 3), counts())           // a repeated key across two frames
	f.Add(counts("m", 1), counts("c", 3), counts("c", 1))             // a descending key
	f.Add(counts("a", 1), counts("b", 2, "c", 3)[:5], counts("a", 1)) // a truncated last frame
	f.Add(supFrame, []byte{wireDomainSupport, 0}, supFrame)
	f.Add(pcFrame, []byte{wirePatternCount, 0}, pcFrame)
	f.Add(sums, []byte{}, sums)

	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		protos := []Store{
			New[string, int64](SumInt64),
			New[string, PatternCount](ReducePatternCount),
			New[string, *DomainSupport](ReduceDomainSupport),
			NewInt64Sums(3),
		}
		seqs := [][][]byte{{a, b}, {c}}
		if len(b) == 0 {
			seqs[0] = seqs[0][:1] // lets a vector, which is one frame, through
		}
		for _, proto := range protos {
			got, err := proto.FoldFrames(seqs, nil)
			if err != nil {
				var werr *wire.Error
				if !errors.As(err, &werr) {
					t.Errorf("%T: fold error %v is not a *wire.Error", proto, err)
				}
				continue
			}
			// Every frame decodes on its own, then.
			var stores []Store
			for _, frames := range seqs {
				for _, frame := range frames {
					s := proto.NewEmpty()
					if err := s.DecodeAndMerge(frame); err != nil {
						t.Fatalf("%T: folded a frame that does not decode: %v", proto, err)
					}
					stores = append(stores, s)
				}
			}
			if len(seqs[0]) == 2 {
				ka, kb := keysOf(stores[0]), keysOf(stores[1])
				if len(ka) > 0 && len(kb) > 0 && kb[0] <= ka[len(ka)-1] {
					t.Fatalf("%T: folded frames whose key ranges overlap (%q, then %q)", proto, ka[len(ka)-1], kb[0])
				}
			}
			want, err := MergeTree(stores, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, wantErr := want.Encode()
			gotBytes, gotErr := got.Encode()
			if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%T: fold and decode+merge disagree (%v / %v)", proto, gotErr, wantErr)
			}
		}
	})
}

// TestFoldSurvivorsOwnTheirBytes: a master fold's survivors share nothing
// with the frames they were read from or with the pooled storage the next
// fold reuses — their keys, domains and patterns are copies.
func TestFoldSurvivorsOwnTheirBytes(t *testing.T) {
	proto := New[string, *DomainSupport](ReduceDomainSupport).
		WithFilter(func(_ string, v *DomainSupport) bool { return v.Support() >= 4 })
	seqsOf := func(seed int64) [][][]byte {
		stream := baEmbeddings(400, 4000, seed)
		half := len(stream) / 2
		return [][][]byte{
			collectFrames(t, foldShapes[2].mk(2, stream[:half]), 1<<10),
			collectFrames(t, foldShapes[2].mk(2, stream[half:]), 1<<10),
		}
	}
	seqs := seqsOf(11)
	candidates := decodeMergeFilter(t, New[string, *DomainSupport](ReduceDomainSupport), seqs).Len()
	a, err := proto.FoldFrames(seqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || a.Len() == candidates {
		t.Fatalf("%d of %d candidates survive: the case tests nothing", a.Len(), candidates)
	}
	want := encodeOf(t, a)
	for _, frames := range seqs {
		for _, f := range frames {
			for i := range f {
				f[i] = 0xff
			}
		}
	}
	if b, err := proto.FoldFrames(seqsOf(12), nil); err != nil || b.Len() == 0 {
		t.Fatalf("second fold: %v, %v", b, err)
	}
	if got := encodeOf(t, a); !bytes.Equal(got, want) {
		t.Fatal("the first fold's survivors changed with its frames or with the second fold")
	}
}

// TestFoldFramesRejectedKeysDoNotAllocate: what the master's fold allocates
// grows with the survivors, not with the candidates it rejects — a rejected
// key's values are decoded into pooled storage, reduced there and released,
// and its key is never copied out of the frame. A pool is emptied by a GC,
// so the test compares two sizes instead of asserting zero.
func TestFoldFramesRejectedKeysDoNotAllocate(t *testing.T) {
	p := pattern.Triangle()
	perm := p.Canonical().Perm
	proto := New[string, *DomainSupport](ReduceDomainSupport).
		WithFilter(func(_ string, v *DomainSupport) bool { return v.HasEnoughSupport() })
	const survivors = 100
	seqs := func(rejected int) [][][]byte {
		senders := []Store{proto.NewEmpty(), proto.NewEmpty()}
		add := func(sender int, key string, vs ...graph.VertexID) {
			senders[sender].(*Aggregation[string, *DomainSupport]).Add(key, ScratchDomainSupport(p, 3, vs, perm))
		}
		for i := 0; i < survivors; i++ {
			for j := graph.VertexID(0); j < 3; j++ {
				add(int(j%2), fmt.Sprintf("kept-%03d", i), 3*j, 3*j+1, 3*j+2)
			}
		}
		// Both senders hold every rejected key, so the master reduces it.
		for i := 0; i < rejected; i++ {
			add(0, fmt.Sprintf("rejected-%06d", i), 1, 2, 3)
			add(1, fmt.Sprintf("rejected-%06d", i), 1, 2, 4)
		}
		return [][][]byte{collectFrames(t, senders[:1], FrameLimit), collectFrames(t, senders[1:], FrameLimit)}
	}
	allocated := func(seqs [][][]byte) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := proto.FoldFrames(seqs, nil)
			runtime.ReadMemStats(&after)
			if err != nil || got.Len() != survivors {
				t.Fatalf("fold: %v; want %d survivors", err, survivors)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	one, ten := allocated(seqs(2000)), allocated(seqs(20000))
	t.Logf("master fold of %d survivors: %d B with 2 000 rejected keys, %d B with 20 000", survivors, one, ten)
	if ten > one+32<<10 && !raceEnabled {
		t.Errorf("18 000 more rejected keys cost %d more bytes, want them free", ten-one)
	}
}

// TestFoldFilterAndReduceReadThePattern: on the master a value's pattern is
// still in wire form when the aggFilter and the reduction see it (Pat is
// nil there), and Pattern decodes it. A filter that selects by pattern and a
// hand-written reduction that reads both sides' patterns keep what the
// decode-everything tail keeps, byte for byte.
func TestFoldFilterAndReduceReadThePattern(t *testing.T) {
	stream := baEmbeddings(400, 4000, 13)
	reduce := func(a, b *DomainSupport) *DomainSupport {
		if a.Pattern() == nil || b.Pattern() == nil {
			t.Error("a reduction's argument has no pattern")
		}
		return a.Aggregate(b)
	}
	proto := New[string, *DomainSupport](reduce).WithFilter(func(_ string, v *DomainSupport) bool {
		return v.Support() >= 2 && v.Pattern().NumVertices() == 3
	})
	var seqs [][][]byte
	for w := 0; w < 2; w++ {
		var part []oracleEmbedding
		for i := w; i < len(stream); i += 2 {
			part = append(part, stream[i])
		}
		seqs = append(seqs, collectFrames(t, foldShapes[2].mk(2, part), 1<<10))
	}
	want := decodeMergeFilter(t, proto, seqs)
	got, err := proto.FoldFrames(seqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || got.Len() != want.Len() || !bytes.Equal(encodeOf(t, got), encodeOf(t, want)) {
		t.Fatalf("fold keeps %d entries, decode+MergeTree+ApplyFilter %d, or their bytes differ", got.Len(), want.Len())
	}
	got.(*Aggregation[string, *DomainSupport]).Range(func(k string, v *DomainSupport) bool {
		if v.Pat == nil || v.Pat.NumVertices() != 3 {
			t.Errorf("survivor %q: pattern %v, want a 3-vertex one", k, v.Pat)
		}
		return true
	})
}

// TestFrameBufferOutlivesGC: the fold's frame buffer waits for the next fold
// in one process-wide slot, which a collection does not clear, so a fold
// after two GCs writes its frames into the buffer an earlier fold grew
// instead of regrowing one from 512 B to twice the frame size.
func TestFrameBufferOutlivesGC(t *testing.T) {
	fold := func() (grew uint64) {
		a := New[string, int64](SumInt64)
		for i := 0; i < 80; i++ { // 80 KiB of entries: the first frame reaches FrameLimit
			a.Add(fmt.Sprintf("%02d%s", i, bytes.Repeat([]byte{'k'}, 1<<10)), int64(i))
		}
		frames := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := a.NewEmpty().FoldToFrames([]Store{a}, nil, func([]byte) error { frames++; return nil })
		runtime.ReadMemStats(&after)
		if err != nil || frames != 2 {
			t.Fatalf("fold: %d frames, %v; want 2 frames", frames, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first := fold()
	runtime.GC()
	runtime.GC()
	grew := fold()
	t.Logf("the first fold allocated %d B, one after two GCs %d B", first, grew)
	if grew >= FrameLimit {
		t.Errorf("a fold after two GCs allocated %d B (the first %d B), want under the %d B frame size", grew, first, FrameLimit)
	}
}
