package enumerator

import (
	"math/rand"
	"slices"
	"testing"
)

// modelLevel is the reference form of a level: its prefix and the extensions
// not yet consumed, spelled out (a root level's stride is materialized).
type modelLevel struct{ prefix, exts []Word }

// model is a slice-of-slices stack with the behaviour Stack must have.
type model struct {
	levels []modelLevel
	peak   int
}

func (m *model) words() int {
	n := 0
	for _, l := range m.levels {
		n += len(l.prefix) + len(l.exts)
	}
	return n
}

func (m *model) pending() int { return m.words() - m.prefixWords() }

func (m *model) prefixWords() int {
	n := 0
	for _, l := range m.levels {
		n += len(l.prefix)
	}
	return n
}

func (m *model) push(l modelLevel) {
	m.levels = append(m.levels, l)
	m.peak = max(m.peak, m.words())
}

func (m *model) steal() ([]Word, bool) {
	for i := range m.levels {
		l := &m.levels[i]
		if len(l.exts) > 0 {
			st := append(slices.Clone(l.prefix), l.exts[0])
			l.exts = l.exts[1:]
			return st, true
		}
	}
	return nil, false
}

// stackOps drives a Stack and the model through the same operations, decoded
// from ops one byte (plus operands) at a time, and fails on the first
// difference in what comes out or in the stack's books.
func stackOps(t *testing.T, ops []byte) {
	var s Stack
	var m model
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	word := Word(0)
	words := func(n int) []Word {
		out := make([]Word, n)
		for i := range out {
			word++
			out[i] = word
		}
		return out
	}
	for step := 0; len(ops) > 0; step++ {
		switch op := next() % 8; op {
		case 0, 1: // push a level
			prefix, exts := words(next()%6), words(next()%9)
			s.PushCopy(prefix, exts)
			m.push(modelLevel{prefix, exts})
		case 2, 3: // the owner consumes from the top level
			if len(m.levels) == 0 {
				continue
			}
			top := &m.levels[len(m.levels)-1]
			w, ok := s.Top().Take()
			if ok != (len(top.exts) > 0) || ok && w != top.exts[0] {
				t.Fatalf("step %d: Take=%d,%v, model has %v", step, w, ok, top.exts)
			}
			if ok {
				top.exts = top.exts[1:]
			}
		case 4:
			s.Pop()
			if n := len(m.levels); n > 0 {
				m.levels = m.levels[:n-1]
			}
		case 5: // donate
			got, ok := s.StealShallowest()
			want, wantOK := m.steal()
			if ok != wantOK || !slices.Equal(got, want) {
				t.Fatalf("step %d: StealShallowest=%v,%v, want %v,%v", step, got, ok, want, wantOK)
			}
		case 6: // end of step, or cancellation
			if next()%2 == 0 {
				s.Clear()
				m.peak = 0
			} else if n := s.Abandon(); n != int64(m.pending()) {
				t.Fatalf("step %d: Abandon=%d, want %d", step, n, m.pending())
			}
			m.levels = nil
		case 7: // a core's root level: {core, core+total, ...} below domain
			if len(m.levels) > 0 {
				continue
			}
			total := 1 + next()%5
			core, domain := next()%total, next()%40
			var exts []Word
			for w := core; w < domain; w += total {
				exts = append(exts, Word(w))
			}
			s.PushRoot(core, total, domain)
			m.push(modelLevel{nil, exts})
		}
		if s.Depth() != len(m.levels) {
			t.Fatalf("step %d: Depth=%d, want %d", step, s.Depth(), len(m.levels))
		}
		if got, want := s.StateBytes(), int64(4*m.words()); got != want {
			t.Fatalf("step %d: StateBytes=%d, want %d", step, got, want)
		}
		if got, want := s.PeakStateBytes(), int64(4*m.peak); got != want {
			t.Fatalf("step %d: PeakStateBytes=%d, want %d", step, got, want)
		}
		if s.Pending() != int64(m.pending()) || s.HasWork() != (m.pending() > 0) {
			t.Fatalf("step %d: Pending=%d HasWork=%v, want %d", step, s.Pending(), s.HasWork(), m.pending())
		}
		if top := s.Top(); (top == nil) != (len(m.levels) == 0) {
			t.Fatalf("step %d: Top=%v with %d levels", step, top, len(m.levels))
		} else if top != nil {
			l := m.levels[len(m.levels)-1]
			if !slices.Equal(top.Prefix(), l.prefix) || top.Depth() != len(l.prefix) || top.Remaining() != len(l.exts) {
				t.Fatalf("step %d: top level prefix %v with %d left, want %v with %d",
					step, top.Prefix(), top.Remaining(), l.prefix, len(l.exts))
			}
		}
	}
}

// TestStackAgainstModel runs random operation sequences — pushes and takes
// weighted so stacks get deep — against the reference model.
func TestStackAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 400)
		rng.Read(ops)
		stackOps(t, ops)
	}
}

func FuzzStack(f *testing.F) {
	f.Add([]byte{7, 3, 1, 30, 0, 2, 4, 2, 5, 5, 4, 6, 1})
	f.Add([]byte{0, 5, 8, 0, 1, 1, 2, 2, 2, 5, 4, 4, 4, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { stackOps(t, ops) })
}

// cycle is the per-level work of the DFS loop: copy a level in, drain it, pop
// it (the repository benchmark's enumerator.cycle_ns probe).
func cycle(s *Stack, prefix, exts []Word) (sum Word) {
	e := s.PushCopy(prefix, exts)
	for {
		w, ok := e.Take()
		if !ok {
			break
		}
		sum += w
	}
	s.Pop()
	return sum
}

// TestSteadyStateAllocatesNothing: once a stack has been as deep and as wide
// as it gets, pushing, draining, popping and reading its books are free of
// allocations.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	var s Stack
	prefix, exts := []Word{1, 2, 3}, make([]Word, 16)
	s.PushRoot(0, 1, 100)
	s.PushCopy(prefix[:1], exts)
	cycle(&s, prefix, exts) // warm the third slot
	if n := testing.AllocsPerRun(100, func() { cycle(&s, prefix, exts) }); n != 0 {
		t.Errorf("a warm PushCopy+drain+Pop cycle allocates %v times", n)
	}
	var sink int64
	if n := testing.AllocsPerRun(100, func() {
		sink += s.StateBytes() + s.PeakStateBytes() + s.Pending()
		if s.HasWork() {
			sink++
		}
	}); n != 0 {
		t.Errorf("StateBytes/HasWork allocate %v times", n)
	}
	s.Clear()
	if n := testing.AllocsPerRun(100, func() {
		s.PushRoot(0, 1, 100)
		s.PushCopy(prefix[:1], exts)
		cycle(&s, prefix, exts)
		s.Clear()
	}); n != 0 {
		t.Errorf("refilling a cleared stack allocates %v times", n)
	}
}

func BenchmarkStackCycle(b *testing.B) {
	var s Stack
	prefix, exts := []Word{1, 2, 3}, make([]Word, 16)
	b.ReportAllocs()
	var sum Word
	for i := 0; i < b.N; i++ {
		sum += cycle(&s, prefix, exts)
	}
	_ = sum
}
