package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveIntersect is the quadratic reference: distinct values in both inputs.
func naiveIntersect(a, b []int32) []int32 {
	var out []int32
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if found && (len(out) == 0 || out[len(out)-1] != x) {
			out = append(out, x)
		}
	}
	return out
}

func naiveDiff(a, b []int32) []int32 {
	var out []int32
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found && (len(out) == 0 || out[len(out)-1] != x) {
			out = append(out, x)
		}
	}
	return out
}

func sortedRandom(rng *rand.Rand, n, max int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(max))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGallop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		a := sortedRandom(rng, rng.Intn(40), 60)
		x := int32(rng.Intn(70))
		got := Gallop(a, x)
		want := sort.Search(len(a), func(i int) bool { return a[i] >= x })
		if got != want {
			t.Fatalf("Gallop(%v, %d) = %d, want %d", a, x, got, want)
		}
	}
}

func TestIntersectSortedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 1000; iter++ {
		// Skewed sizes hit both the merge and the gallop kernels.
		a := sortedRandom(rng, rng.Intn(30), 50)
		b := sortedRandom(rng, rng.Intn(300), 50)
		got := IntersectSorted(a, b, nil)
		want := naiveIntersect(a, b)
		if !equalInt32(got, want) {
			t.Fatalf("IntersectSorted(%v, %v) = %v, want %v", a, b, got, want)
		}
		// Symmetric.
		if rev := IntersectSorted(b, a, nil); !equalInt32(rev, got) {
			t.Fatalf("IntersectSorted not symmetric: %v vs %v", rev, got)
		}
	}
}

func TestIntersectSortedAppendsToDst(t *testing.T) {
	dst := []int32{-7}
	got := IntersectSorted([]int32{1, 2, 3}, []int32{2, 3, 4}, dst)
	if !equalInt32(got, []int32{-7, 2, 3}) {
		t.Fatalf("got %v, want [-7 2 3]", got)
	}
}

func TestDiffSortedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 1000; iter++ {
		a := sortedRandom(rng, rng.Intn(40), 40)
		n, span := rng.Intn(40), 40
		if iter%4 == 0 { // long enough for the gallop branch
			n, span = n+GallopRatio*len(a), 200
		}
		b := sortedRandom(rng, n, span)
		got := DiffSorted(a, b, nil)
		want := naiveDiff(a, b)
		if !equalInt32(got, want) {
			t.Fatalf("DiffSorted(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
	// De-duplication on emit must not reach into what dst already held.
	if got := DiffSorted([]int32{3, 3, 5}, []int32{5}, []int32{3}); !equalInt32(got, []int32{3, 3}) {
		t.Fatalf("DiffSorted onto [3] = %v, want [3 3]", got)
	}
}

// naiveUnion is the quadratic reference: distinct values of either input,
// ascending.
func naiveUnion(a, b []int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestUnionSortedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 1000; iter++ {
		// Duplicate-heavy inputs: union must dedup within as well as across.
		a := sortedRandom(rng, rng.Intn(40), 25)
		b := sortedRandom(rng, rng.Intn(400), 25)
		got := UnionSorted(a, b, nil)
		want := naiveUnion(a, b)
		if len(got) == 0 {
			got = nil
		}
		if !equalInt32(got, want) {
			t.Fatalf("UnionSorted(%v, %v) = %v, want %v", a, b, got, want)
		}
		if rev := UnionSorted(b, a, nil); !equalInt32(rev, got) {
			t.Fatalf("UnionSorted not symmetric: %v vs %v", rev, got)
		}
	}
}

func TestUnionSortedAppendsToDst(t *testing.T) {
	dst := []int32{-7}
	got := UnionSorted([]int32{1, 3}, []int32{2, 3, 4}, dst)
	if !equalInt32(got, []int32{-7, 1, 2, 3, 4}) {
		t.Fatalf("got %v, want [-7 1 2 3 4]", got)
	}
	if one := UnionSorted([]int32{5, 5, 6}, nil, nil); !equalInt32(one, []int32{5, 6}) {
		t.Fatalf("one-sided union = %v, want [5 6]", one)
	}
}

func TestIntersectKernelsSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := sortedRandom(rng, 50, 200)
	b := sortedRandom(rng, 500, 200)
	dst := make([]int32, 0, len(a))
	allocs := testing.AllocsPerRun(200, func() {
		dst = IntersectSorted(a, b, dst[:0])
		dst = DiffSorted(a, b, dst[:0])
	})
	if allocs != 0 {
		t.Errorf("kernels allocate %.1f times per run with sufficient dst capacity, want 0", allocs)
	}
}

func BenchmarkIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	small := sortedRandom(rng, 64, 1<<20)
	comparable_ := sortedRandom(rng, 128, 1<<20)
	big := sortedRandom(rng, 8192, 1<<20)
	dst := make([]int32, 0, 256)
	b.Run("merge-64x128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = IntersectSorted(small, comparable_, dst[:0])
		}
	})
	b.Run("gallop-64x8192", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = IntersectSorted(small, big, dst[:0])
		}
	})
	b.Run("diff-64x8192", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = DiffSorted(small, big, dst[:0])
		}
	})
}
