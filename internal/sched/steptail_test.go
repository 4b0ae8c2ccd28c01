package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/metrics"
	"fractal/internal/pattern"
	"fractal/internal/rpc"
	"fractal/internal/step"
	"fractal/internal/subgraph"
	"fractal/internal/workload"
)

// The step tail (DESIGN §9): what happens between "the cores are idle" and
// "the result is committed". The tests play one side of it against the other
// — a runtime's workers sit idle, so a test sends what a worker would and
// calls the master's collectAggregations itself — and the benchmark times
// both sides on the repository benchmark's heaviest tail.

type supports = agg.Aggregation[string, *agg.DomainSupport]

func newSupports() *supports {
	return agg.New[string, *agg.DomainSupport](agg.ReduceDomainSupport).
		WithFilter(func(_ string, v *agg.DomainSupport) bool { return v.HasEnoughSupport() })
}

// supportStep is a one-step workflow aggregating into spec.
func supportStep(t testing.TB, spec *step.AggSpec) *step.Step {
	t.Helper()
	steps, err := step.Split(step.Workflow{step.ExtendP(), step.AggregateP(spec)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return steps[0]
}

// tailRun is attempt 0 of step 0 of job 1, executing s over the runtime's
// workers, none of which has been told about it.
func tailRun(rt *Runtime, s *step.Step) *jobRun {
	return &jobRun{key: attemptKey{Job: 1}, step: s, parts: rt.participantsFor(nil), env: agg.NewRegistry(), blocks: map[int]metrics.Snapshot{}}
}

// sendAs sends the master a step-tail message the way worker id would.
func sendAs(t testing.TB, rt *Runtime, id int, kind uint8, m message) {
	t.Helper()
	if err := rt.workers[id].tr.Send(rpc.Master, rpc.Envelope{Kind: kind, Body: encode(m)}); err != nil {
		t.Fatal(err)
	}
}

// supportFrames folds n one-vertex supports, all frequent, into frames: three
// of them for n = 3000.
func supportFrames(t testing.TB, n int) [][]byte {
	t.Helper()
	a := newSupports()
	for i := 0; i < n; i++ {
		a.Add(fmt.Sprintf("key-%04d-%s", i, strings.Repeat("x", 40)),
			agg.NewDomainSupport(nil, 1, []graph.VertexID{graph.VertexID(i)}, []int{0}))
	}
	var frames [][]byte
	err := a.FoldToFrames([]agg.Store{a}, nil, func(f []byte) error {
		frames = append(frames, append([]byte(nil), f...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func tailRuntime(t testing.TB, cfg Config) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestUnknownAggregationFailsTheStep: a frame for an aggregation the step
// does not have means the two ends disagree about the step. It used to be
// skipped uncounted, so received never reached Sent and the step sat out
// WorkerTimeout to blame a worker that was alive.
func TestUnknownAggregationFailsTheStep(t *testing.T) {
	rt := tailRuntime(t, Config{Workers: 1, CoresPerWorker: 1, WorkerTimeout: time.Minute})
	run := tailRun(rt, supportStep(t, &step.AggSpec{Name: "support", Proto: newSupports()}))
	sendAs(t, rt, 0, kAggData, aggDataMsg{attemptKey: attemptKey{Job: 1}, Name: "suport", Data: supportFrames(t, 1)[0]})
	sendAs(t, rt, 0, kAggDone, aggDoneMsg{attemptKey: attemptKey{Job: 1}, Sent: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := rt.collectAggregations(ctx, run)
	var aggErr *AggregationError
	if !errors.As(err, &aggErr) || aggErr.Worker != 0 || !strings.Contains(err.Error(), `unknown aggregation "suport"`) {
		t.Fatalf("collectAggregations = %v, want an AggregationError of worker 0 naming the aggregation", err)
	}
	if names := run.env.Names(); len(names) != 0 {
		t.Errorf("committed %v", names)
	}
}

// TestCancelledTailCommitsNothing cancels the run at the two places a tail
// can be between two frames: while the master still waits for the second,
// and while its fold steps from the first to the second.
func TestCancelledTailCommitsNothing(t *testing.T) {
	frames := supportFrames(t, 3000)
	if len(frames) < 2 {
		t.Fatalf("%d frames, want several", len(frames))
	}
	t.Run("receiving", func(t *testing.T) {
		rt := tailRuntime(t, Config{Workers: 1, CoresPerWorker: 1, WorkerTimeout: time.Minute})
		run := tailRun(rt, supportStep(t, &step.AggSpec{Name: "support", Proto: newSupports()}))
		sendAs(t, rt, 0, kAggData, aggDataMsg{attemptKey: attemptKey{Job: 1}, Name: "support", Data: frames[0]})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := rt.collectAggregations(ctx, run); !errors.Is(err, context.Canceled) {
			t.Fatalf("collectAggregations = %v, want context.Canceled", err)
		}
		if names := run.env.Names(); len(names) != 0 {
			t.Errorf("committed %v", names)
		}
	})
	t.Run("folding", func(t *testing.T) {
		rt := tailRuntime(t, Config{Workers: 1, CoresPerWorker: 1, WorkerTimeout: time.Minute})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The filter sees the first frame's first entry and cancels: the fold
		// must notice at the next frame boundary at the latest.
		seen := 0
		proto := agg.New[string, *agg.DomainSupport](agg.ReduceDomainSupport).
			WithFilter(func(string, *agg.DomainSupport) bool { seen++; cancel(); return true })
		run := tailRun(rt, supportStep(t, &step.AggSpec{Name: "support", Proto: proto}))
		for _, f := range frames {
			sendAs(t, rt, 0, kAggData, aggDataMsg{attemptKey: attemptKey{Job: 1}, Name: "support", Data: f})
		}
		sendAs(t, rt, 0, kAggDone, aggDoneMsg{attemptKey: attemptKey{Job: 1}, Sent: len(frames)})
		if err := rt.collectAggregations(ctx, run); !errors.Is(err, context.Canceled) {
			t.Fatalf("collectAggregations = %v, want context.Canceled", err)
		}
		if names := run.env.Names(); len(names) != 0 {
			t.Errorf("committed %v", names)
		}
		if seen == 0 || seen >= 3000 {
			t.Errorf("the filter saw %d of 3000 entries, want the first frame's at most", seen)
		}
	})
}

// TestFramesOutOfOrderAreACorruptPartial: frames are folded in arrival order,
// which the transport keeps per sender; a sequence that arrives otherwise is
// refused whole, as a typed error, not folded in some other order.
func TestFramesOutOfOrderAreACorruptPartial(t *testing.T) {
	frames := supportFrames(t, 3000)
	rt := tailRuntime(t, Config{Workers: 1, CoresPerWorker: 1, WorkerTimeout: time.Minute})
	run := tailRun(rt, supportStep(t, &step.AggSpec{Name: "support", Proto: newSupports()}))
	for _, i := range []int{1, 0, 2} {
		sendAs(t, rt, 0, kAggData, aggDataMsg{attemptKey: attemptKey{Job: 1}, Name: "support", Data: frames[i]})
	}
	sendAs(t, rt, 0, kAggDone, aggDoneMsg{attemptKey: attemptKey{Job: 1}, Sent: 3})
	err := rt.collectAggregations(context.Background(), run)
	var aggErr *AggregationError
	if !errors.As(err, &aggErr) || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("collectAggregations = %v, want an AggregationError naming the key out of order", err)
	}
	if names := run.env.Names(); len(names) != 0 {
		t.Errorf("committed %v", names)
	}
}

// TestStepEndWithWorkLeftFailsTheStep: a step ends once all of its credit
// came home, which proves every stack empty; a step end that still finds a
// core holding work must fail the step, naming what was left, never commit
// a result without it. Worker 0's one core is held in its first Visit,
// with the rest of the root domain on its stack, while the master ends the
// step.
func TestStepEndWithWorkLeftFailsTheStep(t *testing.T) {
	rt := tailRuntime(t, Config{Workers: 1, CoresPerWorker: 1, WorkerTimeout: time.Minute})
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	steps, err := step.Split(step.Workflow{step.ExtendP(), step.VisitP(func(*subgraph.Embedding) {
		once.Do(func() {
			close(entered)
			<-release
		})
	})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := tailRun(rt, steps[0])
	run.graph, run.kind, run.totalCores = randomGraph(12, 0.5, 1, 1), subgraph.VertexInduced, 1
	rt.mu.Lock()
	rt.run = run
	rt.mu.Unlock()
	toWorker := func(kind uint8, m message) {
		if err := rt.master.Send(0, rpc.Envelope{Kind: kind, Body: encode(m)}); err != nil {
			t.Fatal(err)
		}
	}
	toWorker(kStepStart, stepStartMsg{attemptKey: run.key, Workers: []peerAddr{{Worker: 0}}, Share: unit})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the core never reached its Visit")
	}
	toWorker(kStepEnd, run.key)
	for st := rt.workers[0].current(); !st.stopping(); st = rt.workers[0].current() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = rt.collectAggregations(ctx, run)
	var aggErr *AggregationError
	if !errors.As(err, &aggErr) || aggErr.Worker != 0 || !strings.Contains(err.Error(), "11 unexplored extensions") {
		t.Fatalf("collectAggregations = %v, want an AggregationError of worker 0 naming the 11 roots left", err)
	}
}

// fsmLevel3 holds what the benchmark's fsm_ml job has at the end of its third
// level, when the cores go idle: the step, each core's partial (encoded, so
// that every use starts from fresh stores), and the contributions the cores
// emitted to build them, in the order they emitted them: contribution i is
// of class classes[emitted[i]], and its vertices are the next
// len(classes[emitted[i]].Perm) of vertices.
type fsmLevel3 struct {
	step     *step.Step
	spec     *step.AggSpec
	cores    [][]byte
	emitted  []int32
	vertices []graph.VertexID
	classes  []*pattern.Class
}

var (
	fsmLevel3Once sync.Once
	fsmLevel3Data *fsmLevel3
	fsmLevel3Err  error
)

// fsmLevel3Partials mines the fsm_ml analog (4500 vertices, 37 skewed labels,
// support 50) the way apps.FSM does — one job per level, each filtered by the
// levels before it — on one worker with two cores, and keeps level 3's
// per-core partials instead of letting the tail fold them.
func fsmLevel3Partials(t testing.TB) *fsmLevel3 {
	t.Helper()
	fsmLevel3Once.Do(func() { fsmLevel3Data, fsmLevel3Err = mineLevel3() })
	if fsmLevel3Err != nil {
		t.Fatal(fsmLevel3Err)
	}
	return fsmLevel3Data
}

func mineLevel3() (*fsmLevel3, error) {
	const minSupport, levels = 50, 3
	g := workload.SkewLabels(workload.BarabasiAlbert("ba_ml", 4500, 2, 37, 1), 37, 2)
	rt, err := New(Config{Workers: 1, CoresPerWorker: 2})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	name := func(level int) string { return fmt.Sprintf("support%d", level) }
	emit := func(e *subgraph.Embedding, local agg.Store) {
		cl := e.Class()
		local.(*supports).Add(cl.Code, agg.ScratchDomainSupport(cl.Rep, minSupport, e.Vertices(), cl.Perm))
	}
	// Level 3 emits into a store of the test's, one per core: the core is
	// told apart by the store the runtime hands it.
	var mu sync.Mutex
	kept := map[agg.Store]*supports{}
	out := &fsmLevel3{}
	class := map[string]int32{}
	keep := func(e *subgraph.Embedding, local agg.Store) {
		cl := e.Class()
		mu.Lock()
		mine := kept[local]
		if mine == nil {
			mine = newSupports()
			kept[local] = mine
		}
		i, ok := class[cl.Code]
		if !ok {
			c := *cl
			c.Perm = slices.Clone(cl.Perm)
			i, class[cl.Code] = int32(len(out.classes)), int32(len(out.classes))
			out.classes = append(out.classes, &c)
		}
		out.emitted = append(out.emitted, i)
		out.vertices = append(out.vertices, e.Vertices()...)
		mu.Unlock()
		emit(e, mine)
	}
	env := agg.NewRegistry()
	for level := 1; level <= levels; level++ {
		w := step.Workflow{step.ExtendP()}
		for l := 1; l < level; l++ {
			w = append(w, step.AggFilterP(name(l), func(e *subgraph.Embedding, s agg.Store) bool {
				return s.(*supports).Contains(e.Class().Code)
			}), step.ExtendP())
		}
		spec := &step.AggSpec{Name: name(level), Proto: newSupports(), Emit: emit}
		if level == levels {
			spec.Emit = keep
			out.spec = spec
		}
		w = append(w, step.AggregateP(spec))
		if _, err := rt.Run(context.Background(), Job{Graph: g, Kind: subgraph.EdgeInduced, Workflow: w, Env: env}); err != nil {
			return nil, err
		}
	}
	steps, err := step.Split(step.Workflow{step.ExtendP(), step.AggregateP(out.spec)}, nil)
	if err != nil {
		return nil, err
	}
	out.step = steps[0]
	for _, s := range kept {
		data, err := s.Encode()
		if err != nil {
			return nil, err
		}
		out.cores = append(out.cores, data)
	}
	if len(out.cores) != 2 {
		return nil, fmt.Errorf("level 3 ran on %d cores, want 2", len(out.cores))
	}
	return out, nil
}

// stores decodes the per-core partials into fresh stores.
func (f *fsmLevel3) stores(t testing.TB) []agg.Store {
	t.Helper()
	out := make([]agg.Store, len(f.cores))
	for i, data := range f.cores {
		out[i] = f.spec.Proto.NewEmpty()
		if err := out[i].DecodeAndMerge(data); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestFoldKeepsSurvivorsOnly runs both folds on the fsm_ml analog's level-3
// partials — 3 262 candidate patterns, of which 98 have enough support (the
// benchmark's renumbering of the same graph makes that 3 257 and 99) — next
// to the tail they replaced, which the library still has, and holds them to
// what they are for: the master keeps the survivors only, the cores are
// empty afterwards, and each end allocates for what it keeps, not for what
// passes through it. Measured here (go1.24, 2 vCPUs, payload P = 0.55 MB in
// 9 frames):
//
//	worker  FoldToFrames  2.4 P, then 0.5 P   MergeTree + Encode            5.5 P
//	master  FoldFrames    0.06 P              DecodeAndMerge + ApplyFilter  4.1 P
//
// A store keeps a value as it is and the fold returns every value's arrays
// to the domain pool once it is encoded (DESIGN §9): the worker's first fold
// in a process fills the pool's free lists and unions two cores' domains into
// classes the pool does not hold yet, and a second fold of the same partials
// grows into what the first returned. The master decodes every candidate
// into pooled storage and reads keys and patterns in place, so what it
// allocates is its 98 survivors' keys and patterns. The worker's fold
// allocated 2 018 390 B while it unioned two cores' domains into fresh
// arrays; decode + filter allocated 2.93–2.97 MB while DecodeAndMerge copied
// every value it kept out of pooled storage, and 2.25–2.27 MB since it keeps
// the decoded arrays. Neither fold may allocate more than the tail it
// replaced, in every mode; the tighter bounds rest on the pools and are not
// held under -race.
func TestFoldKeepsSurvivorsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("mines three levels of the fsm_ml analog")
	}
	f := fsmLevel3Partials(t)
	proto := f.spec.Proto

	parts := f.stores(t)
	var frames [][]byte
	payload := 0
	before := totalAlloc()
	err := proto.FoldToFrames(parts, nil, func(frame []byte) error {
		frames = append(frames, append([]byte(nil), frame...))
		payload += len(frame)
		return nil
	})
	worker := totalAlloc() - before - uint64(payload) // less the test's own copies
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if p.Len() != 0 {
			t.Errorf("core %d still holds %d entries after the fold", i, p.Len())
		}
	}
	parts = f.stores(t)
	before = totalAlloc()
	err = proto.FoldToFrames(parts, nil, func([]byte) error { return nil })
	again := totalAlloc() - before
	if err != nil {
		t.Fatal(err)
	}
	before = totalAlloc()
	folded, err := proto.FoldFrames([][][]byte{frames}, nil)
	master := totalAlloc() - before
	if err != nil {
		t.Fatal(err)
	}

	// The tail as it was, on the same partials.
	parts = f.stores(t)
	before = totalAlloc()
	merged, err := agg.MergeTree(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := merged.Encode()
	oldWorker := totalAlloc() - before
	if err != nil {
		t.Fatal(err)
	}
	candidates := merged.Len()
	before = totalAlloc()
	committed := proto.NewEmpty()
	if err := committed.DecodeAndMerge(shipped); err != nil {
		t.Fatal(err)
	}
	committed.ApplyFilter()
	oldMaster := totalAlloc() - before

	t.Logf("%d candidates in %d frames, %d bytes; %d survive", candidates, len(frames), payload, folded.Len())
	t.Logf("bytes allocated: worker fold %d, then %d (MergeTree + Encode: %d), master fold %d (decode + filter: %d)",
		worker, again, oldWorker, master, oldMaster)
	want, _ := committed.Encode()
	got, _ := folded.Encode()
	if candidates != 3262 || folded.Len() != 98 || string(got) != string(want) {
		t.Errorf("%d candidates, %d survivors (old tail: %d): want 3262 and 98, byte for byte", candidates, folded.Len(), committed.Len())
	}
	if len(frames) != (len(shipped)+agg.FrameLimit-1)/agg.FrameLimit {
		t.Errorf("%d bytes left in %d frames, want one per %d", payload, len(frames), agg.FrameLimit)
	}
	if worker > oldWorker || master > oldMaster {
		t.Errorf("the folds allocate more than the tail they replace")
	}
	if raceEnabled {
		return // the pools drop what they hold at random: the bounds below are the pools'
	}
	if worker >= 2018390 {
		t.Errorf("the worker fold allocates %d B, no less than when it unioned into fresh arrays (2 018 390 B)", worker)
	}
	if master > oldMaster/4 {
		t.Errorf("the master fold allocates %d B, more than a quarter of decode + filter's %d B", master, oldMaster)
	}
	if again > worker {
		t.Errorf("the worker's second fold allocates %d B, more than its first (%d B)", again, worker)
	}
	if oldMaster > 2840000 {
		t.Errorf("decode + filter allocates %d B, more than the 2.84 MB it took before kept values were copied twice", oldMaster)
	}
}

// TestFoldReturnsWhatTheNextLevelGrowsInto replays the fsm_ml analog's level
// 3 — every contribution its two cores emitted, in their order — into one
// core's store and folds it into frames, twice over the same store. The
// first pass grows each stored domain from its contribution's slab through
// the domain pool, and the fold returns every array once the value is
// encoded; the second pass grows into what the first returned. Measured
// here (go1.24, 2 vCPUs): the first pass allocates 3 161 064–3 709 464 B
// (less when TestFoldKeepsSurvivorsOnly ran first) and the second
// 289 600–628 848 B. Before the domain pool, when
// a domain grew by append, a stored value was a compact copy of its
// contribution and the fold returned nothing, the first pass allocated
// 5 305 392–5 306 088 B and the second 4 966 208–5 305 928 B. The values
// themselves come back through a sync.Pool, which drops at random under
// -race, so the bounds are not held there.
func TestFoldReturnsWhatTheNextLevelGrowsInto(t *testing.T) {
	if testing.Short() {
		t.Skip("mines three levels of the fsm_ml analog")
	}
	f := fsmLevel3Partials(t)
	core := f.spec.Proto.NewEmpty()
	pass := func() uint64 {
		before := totalAlloc()
		vs := f.vertices
		for _, i := range f.emitted {
			cl := f.classes[i]
			core.(*supports).Add(cl.Code, agg.ScratchDomainSupport(cl.Rep, 50, vs[:len(cl.Perm)], cl.Perm))
			vs = vs[len(cl.Perm):]
		}
		keys := core.Len()
		err := f.spec.Proto.FoldToFrames([]agg.Store{core}, nil, func([]byte) error { return nil })
		allocated := totalAlloc() - before
		if err != nil || keys != 3262 || core.Len() != 0 {
			t.Fatalf("fold: %v; %d keys, %d left after it: want 3262, then none", err, keys, core.Len())
		}
		return allocated
	}
	first, second := pass(), pass()
	t.Logf("%d contributions: the first pass allocates %d B, the second %d B", len(f.emitted), first, second)
	if raceEnabled {
		return
	}
	if second > first/4 {
		t.Errorf("the second pass allocates %d B, more than a quarter of the first's %d B", second, first)
	}
	if first >= 5305392 {
		t.Errorf("the first pass allocates %d B, no less than before the domain pool (5 305 392 B)", first)
	}
}

// BenchmarkStepTail is `make bench-agg`'s end-to-end row: from "the cores of
// the fsm_ml analog's level 3 are idle" to "support3 is committed", through
// the workers' routers and a real transport — one worker with two cores on
// the loopback, and two one-core workers joined to a master over TCP like
// fsm_ml_dist. B/op and allocs/op cover both ends; frames is the aggData
// messages of one tail.
func BenchmarkStepTail(b *testing.B) {
	f := fsmLevel3Partials(b)
	for _, tcp := range []bool{false, true} {
		name := "loopback-1x2"
		if tcp {
			name = "tcp-2x1"
		}
		b.Run(name, func(b *testing.B) {
			var rt *Runtime
			var workers []*worker
			if tcp {
				rt, workers = joinedRuntime(b, Config{CoresPerWorker: 1})
			} else {
				rt = tailRuntime(b, Config{Workers: 1, CoresPerWorker: 2})
				workers = rt.workers
			}
			end := encode(attemptKey{Job: 1})
			frames := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Hand every worker its cores' partials as a step that has
				// just gone idle.
				parts := f.stores(b)
				for _, w := range workers {
					st := &stepCtx{run: &jobRun{key: attemptKey{Job: 1}, step: f.step}, doneCh: make(chan struct{})}
					for range w.cores {
						st.localAggs = append(st.localAggs, map[string]agg.Store{f.spec.Name: parts[0]})
						parts = parts[1:]
					}
					w.mu.Lock()
					w.cur = st
					w.mu.Unlock()
				}
				run := tailRun(rt, f.step)
				before := rt.master.Stats().MsgsRecv
				runtime.GC()
				b.StartTimer()
				for _, wid := range run.parts {
					if err := rt.master.Send(rpc.NodeID(wid), rpc.Envelope{Kind: kStepEnd, Body: end}); err != nil {
						b.Fatal(err)
					}
				}
				if err := rt.collectAggregations(context.Background(), run); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				frames += rt.master.Stats().MsgsRecv - before - int64(len(run.parts)) // less the aggDones
				if s, _ := run.env.Get(f.spec.Name); s == nil || s.Len() != 98 {
					b.Fatalf("committed %v, want 98 frequent patterns", s)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(frames)/float64(b.N), "frames")
		})
	}
}
