package enumerator

import (
	"math"
	"slices"
	"testing"
)

func drain(e *Enumerator) []Word {
	var got []Word
	for {
		w, ok := e.Take()
		if !ok {
			return got
		}
		got = append(got, w)
	}
}

func TestTakeDrainsInOrder(t *testing.T) {
	var s Stack
	e := s.PushCopy([]Word{1, 2}, []Word{5, 7, 9})
	if e.Depth() != 2 || !slices.Equal(e.Prefix(), []Word{1, 2}) {
		t.Errorf("Depth=%d Prefix=%v", e.Depth(), e.Prefix())
	}
	if got := drain(e); !slices.Equal(got, []Word{5, 7, 9}) {
		t.Fatalf("got %v", got)
	}
	if _, ok := e.Take(); ok {
		t.Error("Take after exhaustion succeeded")
	}
	if e.Remaining() != 0 || s.HasWork() {
		t.Error("work left after exhaustion")
	}
}

func TestRootPartitionsCoverDomain(t *testing.T) {
	const domain, cores = 23, 4
	seen := map[Word]int{}
	for c := 0; c < cores; c++ {
		var s Stack
		for _, w := range drain(s.PushRoot(c, cores, domain)) {
			seen[w]++
			if int(w)%cores != c {
				t.Errorf("core %d produced word %d", c, w)
			}
		}
	}
	if len(seen) != domain {
		t.Fatalf("partitions covered %d words, want %d", len(seen), domain)
	}
	for w, n := range seen {
		if n != 1 {
			t.Errorf("word %d produced %d times", w, n)
		}
	}
}

func TestRootRemaining(t *testing.T) {
	var s Stack
	e := s.PushRoot(1, 4, 10) // words 1,5,9 -> 3 items
	if r := e.Remaining(); r != 3 || s.StateBytes() != 12 {
		t.Errorf("Remaining=%d StateBytes=%d, want 3 and 12", r, s.StateBytes())
	}
	e.Take()
	if r := e.Remaining(); r != 2 || s.StateBytes() != 8 {
		t.Errorf("Remaining=%d StateBytes=%d, want 2 and 8", r, s.StateBytes())
	}
	s.Clear()
	if s.PushRoot(3, 4, 2).Remaining() != 0 || s.HasWork() { // no words
		t.Error("empty root has remaining work")
	}
}

func TestPushRootRejectsOversizedDomain(t *testing.T) {
	for _, domain := range []int{-1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PushRoot accepted domain %d", domain)
				}
			}()
			var s Stack
			s.PushRoot(0, 1, domain)
		}()
	}
	var s Stack
	s.PushRoot(0, 1, math.MaxInt32) // the largest legal domain
}

func TestPopEmptyStackIsNoOp(t *testing.T) {
	var s Stack
	s.Pop()
	if s.Top() != nil || s.Depth() != 0 || s.StateBytes() != 0 {
		t.Fatal("Pop on an empty stack changed it")
	}
	s.PushCopy([]Word{1}, []Word{2})
	s.Pop()
	s.Pop()
	if s.Top() != nil || s.Depth() != 0 || s.StateBytes() != 0 {
		t.Fatal("second Pop changed an empty stack")
	}
}

func TestPushCopyDoesNotAliasArguments(t *testing.T) {
	var s Stack
	prefix, exts := []Word{1, 2}, []Word{7, 8}
	e := s.PushCopy(prefix, exts)
	prefix[0], exts[0] = 99, 99
	if e.Prefix()[0] != 1 {
		t.Error("level aliases the caller's prefix")
	}
	if w, _ := e.Take(); w != 7 {
		t.Error("level aliases the caller's extensions")
	}
}

// TestStealShallowest pins the donate policy: the shallowest level with an
// unconsumed extension gives one away, in extension order, and the owner
// keeps consuming what is left.
func TestStealShallowest(t *testing.T) {
	var s Stack
	s.PushRoot(0, 2, 3) // words 0, 2
	s.PushCopy([]Word{0}, []Word{5, 6})
	s.PushCopy([]Word{0, 5}, []Word{8})
	want := [][]Word{{0}, {2}, {0, 5}, {0, 6}, {0, 5, 8}}
	for _, w := range want {
		got, ok := s.StealShallowest()
		if !ok || !slices.Equal(got, w) {
			t.Fatalf("StealShallowest=%v,%v, want %v", got, ok, w)
		}
	}
	if got, ok := s.StealShallowest(); ok {
		t.Fatalf("steal from a drained stack gave %v", got)
	}
	if s.Depth() != 3 || s.StateBytes() != 4*3 {
		t.Errorf("after donating everything Depth=%d StateBytes=%d, want 3 levels pinning their 3 prefix words", s.Depth(), s.StateBytes())
	}
	// A stolen prefix is the thief's to keep: later pushes must not reach it.
	s.Clear()
	s.PushCopy([]Word{1, 2}, []Word{3})
	stolen, _ := s.StealShallowest()
	s.Pop()
	s.PushCopy([]Word{9, 9}, []Word{9})
	if !slices.Equal(stolen, []Word{1, 2, 3}) {
		t.Errorf("stolen prefix changed to %v after the donor moved on", stolen)
	}
}

func TestAbandonCountsUnconsumed(t *testing.T) {
	var s Stack
	s.PushRoot(0, 1, 4).Take()
	s.PushCopy([]Word{0}, []Word{1, 2, 3}).Take()
	if n := s.Abandon(); n != 3+2 {
		t.Errorf("Abandon=%d, want 5", n)
	}
	if s.Depth() != 0 || s.HasWork() || s.StateBytes() != 0 || s.Abandon() != 0 {
		t.Error("stack not empty after Abandon")
	}
}
