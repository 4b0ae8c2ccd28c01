package agg

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"fractal/internal/graph"
	"fractal/internal/pattern"
)

func TestAggregationAddGet(t *testing.T) {
	a := New[string, int64](SumInt64)
	a.Add("x", 1)
	a.Add("x", 2)
	a.Add("y", 5)
	if v, ok := a.Get("x"); !ok || v != 3 {
		t.Errorf("Get(x)=%d,%v, want 3,true", v, ok)
	}
	if !a.Contains("y") || a.Contains("z") {
		t.Error("Contains wrong")
	}
	if a.Len() != 2 {
		t.Errorf("Len=%d", a.Len())
	}
	ents := a.Entries()
	if len(ents) != 2 || ents["y"] != 5 {
		t.Errorf("Entries=%v", ents)
	}
}

func TestAggregationRange(t *testing.T) {
	a := New[int64, int64](SumInt64)
	for i := int64(0); i < 5; i++ {
		a.Add(i, i)
	}
	seen := 0
	a.Range(func(k, v int64) bool { seen++; return seen < 3 })
	if seen != 3 {
		t.Errorf("Range early-stop visited %d, want 3", seen)
	}
}

func TestMergeFrom(t *testing.T) {
	a := New[string, int64](SumInt64)
	b := New[string, int64](SumInt64)
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 4)
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Get("x"); v != 3 {
		t.Errorf("merged x=%d", v)
	}
	if v, _ := a.Get("y"); v != 4 {
		t.Errorf("merged y=%d", v)
	}
	// Type mismatch must error.
	c := New[int64, int64](SumInt64)
	if err := a.MergeFrom(c); err == nil {
		t.Error("cross-type merge accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := New[string, int64](SumInt64)
	a.Add("p1", 7)
	a.Add("p2", 9)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b := a.NewEmpty().(*Aggregation[string, int64])
	b.Add("p1", 1)
	if err := b.DecodeAndMerge(data); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Get("p1"); v != 8 {
		t.Errorf("decoded merge p1=%d, want 8", v)
	}
	if v, _ := b.Get("p2"); v != 9 {
		t.Errorf("decoded merge p2=%d, want 9", v)
	}
	if err := b.DecodeAndMerge([]byte("junk")); err == nil {
		t.Error("decoding junk succeeded")
	}
}

func TestApplyFilter(t *testing.T) {
	a := New[string, int64](SumInt64).WithFilter(func(k string, v int64) bool { return v >= 5 })
	a.Add("low", 1)
	a.Add("high", 9)
	a.ApplyFilter()
	if a.Contains("low") || !a.Contains("high") {
		t.Error("filter misapplied")
	}
	// Filterless ApplyFilter is a no-op.
	b := New[string, int64](SumInt64)
	b.Add("k", 1)
	b.ApplyFilter()
	if !b.Contains("k") {
		t.Error("no-op filter dropped entries")
	}
	// NewEmpty preserves the filter.
	c := a.NewEmpty().(*Aggregation[string, int64])
	c.Add("low", 1)
	c.ApplyFilter()
	if c.Contains("low") {
		t.Error("NewEmpty lost the filter")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	a := New[string, int64](SumInt64)
	r.Put("motifs", a)
	if _, ok := r.Get("motifs"); !ok {
		t.Error("Get failed")
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("Get of unknown name succeeded")
	}
	got, err := Typed[string, int64](r, "motifs")
	if err != nil || got != a {
		t.Errorf("Typed=%v,%v", got, err)
	}
	if _, err := Typed[int64, int64](r, "motifs"); err == nil {
		t.Error("Typed with wrong types succeeded")
	}
	if _, err := Typed[string, int64](r, "nope"); err == nil {
		t.Error("Typed with unknown name succeeded")
	}
	r.Put("support", New[string, *DomainSupport](ReduceDomainSupport))
	names := r.Names()
	if len(names) != 2 || names[0] != "motifs" || names[1] != "support" {
		t.Errorf("Names=%v", names)
	}
}

func TestReducers(t *testing.T) {
	if SumInt64(2, 3) != 5 || MaxInt64(2, 3) != 3 || MinInt64(2, 3) != 2 {
		t.Error("int64 reducers wrong")
	}
}

func TestDomainSupportSingleEmbedding(t *testing.T) {
	p := pattern.Triangle()
	canon := p.Canonical()
	ds := NewDomainSupport(p, 2, []graph.VertexID{10, 20, 30}, canon.Perm)
	if ds.Support() != 1 {
		t.Errorf("single embedding support=%d, want 1", ds.Support())
	}
	if ds.HasEnoughSupport() {
		t.Error("support 1 >= 2?")
	}
}

func TestDomainSupportAggregate(t *testing.T) {
	p := pattern.Path(2)
	perm := p.Canonical().Perm
	// Embeddings (0,1), (0,2), (0,3): one endpoint fixed at 0.
	ds := NewDomainSupport(p, 2, []graph.VertexID{0, 1}, perm)
	ds = ds.Aggregate(NewDomainSupport(p, 2, []graph.VertexID{0, 2}, perm))
	ds = ds.Aggregate(NewDomainSupport(p, 2, []graph.VertexID{0, 3}, perm))
	// The single edge pattern has Aut=2, so both positions see both endpoint
	// sets under canonical alignment... with an asymmetric embedding list the
	// minimum image is min(|{0,1,2,3} projections|). For the unlabeled edge,
	// embeddings are recorded in one orientation only, so domains are
	// {0} and {1,2,3} giving support 1 — this is the MNI on the *recorded*
	// embeddings, which is what Fractal computes per enumeration order.
	if s := ds.Support(); s < 1 || s > 3 {
		t.Errorf("support=%d out of range", s)
	}
	if ds.Pat == nil {
		t.Error("representative pattern lost")
	}
}

func TestDomainSupportNilHandling(t *testing.T) {
	p := pattern.Path(2)
	perm := p.Canonical().Perm
	ds := NewDomainSupport(p, 1, []graph.VertexID{0, 1}, perm)
	if got := (*DomainSupport)(nil).Aggregate(ds); got != ds {
		t.Error("nil.Aggregate(x) != x")
	}
	if got := ds.Aggregate(nil); got != ds {
		t.Error("x.Aggregate(nil) != x")
	}
}

// TestDomainSupportBorrowedAccumulator: a borrowed value used as a
// long-lived accumulator, one embedding at a time, gets the insert path
// once its domain is large (a union per call would make the loop quadratic),
// and a nil start accumulates into an owned value.
func TestDomainSupportBorrowedAccumulator(t *testing.T) {
	p := pattern.Path(2)
	perm := p.Canonical().Perm
	const n = 3000
	acc := ScratchDomainSupport(p, 1, []graph.VertexID{0, 1}, perm)
	var owned *DomainSupport
	for v := graph.VertexID(1); v < n; v++ {
		if v > 1 {
			acc = acc.Aggregate(ScratchDomainSupport(p, 1, []graph.VertexID{0, v}, perm))
		}
		owned = owned.Aggregate(ScratchDomainSupport(p, 1, []graph.VertexID{0, v}, perm))
	}
	if acc.nsorted == nil {
		t.Error("the borrowed accumulator's large domain was unioned per call, not inserted into")
	}
	if owned.borrowed {
		t.Error("nil.Aggregate(borrowed) is borrowed, want an owned copy")
	}
	for _, ds := range []*DomainSupport{acc, owned} {
		lens := []int{len(ds.Sorted(0)), len(ds.Sorted(1))}
		if min(lens[0], lens[1]) != 1 || max(lens[0], lens[1]) != n-1 || ds.Pat != p {
			t.Errorf("domain sizes %v, pattern %v: want 1 and %d, %v", lens, ds.Pat, n-1, p)
		}
	}
	for pos := range acc.Domains {
		if !slices.IsSorted(acc.Domains[pos]) {
			t.Errorf("position %d is not sorted after Sorted", pos)
		}
	}
}

func TestDomainSupportArityMismatchFaults(t *testing.T) {
	p2, p3 := pattern.Path(2), pattern.Triangle()
	ds := NewDomainSupport(p2, 1, []graph.VertexID{0, 1}, p2.Canonical().Perm)
	ds3 := NewDomainSupport(p3, 1, []graph.VertexID{0, 1, 2}, p3.Canonical().Perm)

	got := ds.Aggregate(ds3)
	var arityErr *DomainArityError
	if !errors.As(got.Err(), &arityErr) {
		t.Fatalf("Err()=%v, want *DomainArityError", got.Err())
	}
	if arityErr.Want != 2 || arityErr.Got != 3 {
		t.Errorf("fault = %+v, want Want=2 Got=3", arityErr)
	}
	if got.Support() != 1 {
		t.Errorf("mismatched merge mutated domains: support=%d", got.Support())
	}

	// The fault is sticky across further (well-formed) merges and fails the
	// encoder, so a miswired aggregation cannot ship silently.
	got = got.Aggregate(NewDomainSupport(p2, 1, []graph.VertexID{4, 5}, p2.Canonical().Perm))
	if !errors.As(got.Err(), &arityErr) {
		t.Fatalf("fault not sticky: Err()=%v", got.Err())
	}
	a := New[string, *DomainSupport](ReduceDomainSupport)
	a.Add("k", got)
	if _, err := a.Encode(); !errors.As(err, &arityErr) {
		t.Errorf("Encode of faulted store = %v, want *DomainArityError", err)
	}
}

func TestDomainSupportAntiMonotoneProperty(t *testing.T) {
	// Property: merging more embeddings never decreases support.
	p := pattern.Path(2)
	perm := p.Canonical().Perm
	f := func(pairs [][2]uint8) bool {
		ds := NewDomainSupport(p, 1, []graph.VertexID{0, 1}, perm)
		prev := ds.Support()
		for _, pr := range pairs {
			a, b := graph.VertexID(pr[0]), graph.VertexID(pr[1])
			if a == b {
				continue
			}
			ds = ds.Aggregate(NewDomainSupport(p, 1, []graph.VertexID{a, b}, perm))
			if ds.Support() < prev {
				return false
			}
			prev = ds.Support()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDomainSupportWireRoundTrip(t *testing.T) {
	p := pattern.Triangle()
	perm := p.Canonical().Perm
	a := New[string, *DomainSupport](ReduceDomainSupport)
	a.Add("tri", NewDomainSupport(p, 2, []graph.VertexID{1, 2, 3}, perm))
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b := a.NewEmpty().(*Aggregation[string, *DomainSupport])
	b.Add("tri", NewDomainSupport(p, 2, []graph.VertexID{1, 2, 9}, perm))
	if err := b.DecodeAndMerge(data); err != nil {
		t.Fatal(err)
	}
	ds, _ := b.Get("tri")
	if ds.Pat == nil || ds.Pat.NumEdges() != 3 {
		t.Error("pattern lost in the wire round trip")
	}
	if ds.Support() < 1 {
		t.Errorf("support=%d after merge", ds.Support())
	}
	if ds.String() == "" {
		t.Error("empty String")
	}
}

func TestPatternCountReduce(t *testing.T) {
	p := pattern.Triangle()
	a := ReducePatternCount(PatternCount{Count: 2}, PatternCount{Pat: p, Count: 3})
	if a.Count != 5 || a.Pat != p {
		t.Errorf("reduced=%+v", a)
	}
}
