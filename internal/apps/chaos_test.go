package apps

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fractal"
	"fractal/internal/graph"
	"fractal/internal/rpc"
	"fractal/internal/sched"
	"fractal/internal/workload"
)

// Chaos differential suite: the application kernels run under seeded-random
// fault schedules — a worker severed at step start, when it reports its
// status, or while shipping its aggregation partials — and their results
// must be bit-identical to the fault-free baselines. This is the end-to-end
// guarantee behind step retry: exactly one attempt's partials ever commit,
// so injected losses change wall time and the report's loss counters, never
// counts or supports.
//
// FRACTAL_CHAOS_SEEDS overrides the number of seeds (default 3); `make
// chaos` raises it.

func chaosSeeds(t *testing.T) int {
	t.Helper()
	n := 3
	if s := os.Getenv("FRACTAL_CHAOS_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("FRACTAL_CHAOS_SEEDS=%q: want a positive integer", s)
		}
		n = v
	}
	return n
}

const chaosWorkers = 3

// chaosSchedule derives one fault schedule from rng: a victim worker and the
// protocol moment that kills it. multiStep widens the occurrence window for
// apps that run several jobs/steps, so later steps get hit too.
func chaosSchedule(rng *rand.Rand, multiStep bool) (*rpc.Script, string) {
	victim := rpc.NodeID(rng.Intn(chaosWorkers))
	after := 0
	if multiStep {
		after = rng.Intn(2)
	}
	switch rng.Intn(3) {
	case 0: // the victim never receives its step start
		return rpc.NewScript(rpc.SeverRule(rpc.Master, victim, sched.KindStepStart, after, victim)),
			fmt.Sprintf("sever worker %d at step start %d", victim, after)
	case 1: // the victim goes silent when it reports idle or answers a ping
		return rpc.NewScript(rpc.SeverRule(victim, rpc.Master, sched.KindStatusReport, after, victim)),
			fmt.Sprintf("sever worker %d %s %d", victim, atStatusReport, after)
	default: // the victim dies shipping its aggregation partials
		return rpc.NewScript(rpc.SeverRule(victim, rpc.Master, sched.KindAggData, after, victim)),
			fmt.Sprintf("sever worker %d at aggregation ship %d", victim, after)
	}
}

// atStatusReport names the status-report schedules in their labels.
const atStatusReport = "at status report"

// fired reports whether the schedule labelled label intervened. A
// status-report schedule cannot miss — every participant sends at least two
// status reports per step, its busy→idle edge and its answer to the
// confirmation wave, so after ∈ {0,1} always fires — and one that did fails
// the test.
func fired(t *testing.T, script *rpc.Script, label string) bool {
	t.Helper()
	if script.Stats().Fired > 0 {
		return true
	}
	if strings.Contains(label, atStatusReport) {
		t.Errorf("%s: the schedule never fired", label)
	}
	return false
}

// chaosCtx builds a context with the retry budget and short loss-detection
// timeout the chaos runs rely on. A nil script yields the fault-free
// baseline configuration (identical apart from the injector, so any result
// difference is attributable to the faults alone).
func chaosCtx(t *testing.T, script *rpc.Script, extra ...fractal.Option) *fractal.Context {
	t.Helper()
	opts := []fractal.Option{
		fractal.WithWorkers(chaosWorkers), fractal.WithCores(2),
		fractal.WithStepRetries(3), fractal.WithWorkerTimeout(400 * time.Millisecond),
	}
	if script != nil {
		opts = append(opts, fractal.WithFaultInjector(script))
	}
	ctx, err := fractal.NewContext(append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return ctx
}

// requireLossObserved asserts the run actually exercised the fault path: if
// the script intervened, the report must account for at least one lost
// worker (and with a severed participant, at least one retry).
func requireLossObserved(t *testing.T, script *rpc.Script, res *fractal.Result, label string) {
	t.Helper()
	if !fired(t, script, label) {
		return // the schedule never triggered (e.g. window past the app's sends)
	}
	if res == nil || res.Report == nil {
		t.Fatalf("%s: no report to verify loss accounting", label)
	}
	if res.Report.WorkersLost == 0 {
		t.Errorf("%s: script fired but report counts no lost workers", label)
	}
	if res.Report.Retries == 0 {
		t.Errorf("%s: script fired but report counts no retries", label)
	}
}

func TestChaosCliques(t *testing.T) {
	raw := workload.ErdosRenyi("chaos-er", 60, 220, 1, 31)
	chaosCliques(t, raw, raw, 0)
}

// chaosCliques counts the 4-cliques of g — raw, or a copy of it in another
// storage form — under seeded fault schedules from seedBase on: each count
// must be the fault-free count of raw.
func chaosCliques(t *testing.T, raw, g *graph.Graph, seedBase int64) {
	base := chaosCtx(t, nil)
	want, _, err := Cliques(bg, base, base.FromGraph(raw), 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= chaosSeeds(t); seed++ {
		rng := rand.New(rand.NewSource(seedBase + int64(seed)))
		script, label := chaosSchedule(rng, false)
		ctx := chaosCtx(t, script)
		got, res, err := Cliques(bg, ctx, ctx.FromGraph(g), 4)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, label, err)
		}
		if got != want {
			t.Errorf("seed %d (%s): cliques=%d, want %d", seed, label, got, want)
		}
		requireLossObserved(t, script, res, fmt.Sprintf("seed %d (%s)", seed, label))
	}
}

func TestChaosMotifs(t *testing.T) {
	raw := workload.ErdosRenyi("chaos-er-ml", 60, 220, 3, 32)
	base := chaosCtx(t, nil)
	want, _, err := Motifs(bg, base, base.FromGraph(raw), 3, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= chaosSeeds(t); seed++ {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		script, label := chaosSchedule(rng, true)
		ctx := chaosCtx(t, script)
		got, res, err := Motifs(bg, ctx, ctx.FromGraph(raw), 3, EngineAuto)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, label, err)
		}
		motifCountsEqual(t, fmt.Sprintf("chaos seed %d (%s)", seed, label), 3, got, want)
		requireLossObserved(t, script, res, fmt.Sprintf("seed %d (%s)", seed, label))
	}
}

// TestChaosMotifsSweep is TestChaosMotifs on a uniform-label graph, where
// the mixed fleet's first step is the decomposition sweep: every schedule
// strikes its first step start, status report or aggregation ship, so the
// sweep is what loses a worker and is retried, and the counts must still be
// the fault-free run's.
func TestChaosMotifsSweep(t *testing.T) {
	raw := workload.BarabasiAlbert("chaos-ba-sl", 80, 4, 1, 35)
	base := chaosCtx(t, nil)
	want, _, err := Motifs(bg, base, base.FromGraph(raw), 4, EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= chaosSeeds(t); seed++ {
		rng := rand.New(rand.NewSource(int64(510 + seed))) // seeds 1-3 strike all three moments
		script, label := chaosSchedule(rng, false)
		label = fmt.Sprintf("seed %d (%s)", seed, label)
		ctx := chaosCtx(t, script)
		got, res, err := Motifs(bg, ctx, ctx.FromGraph(raw), 4, EngineAuto)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		motifCountsEqual(t, "chaos sweep "+label, 4, got, want)
		requireLossObserved(t, script, res, label)
		if sweep := res.Steps[0]; script.Stats().Fired > 0 && (sweep.Workflow != "EA" || sweep.Attempts < 2) {
			t.Errorf("%s: first step %s ran %d attempt(s), want the sweep retried", label, sweep.Workflow, sweep.Attempts)
		}
	}
}

func TestChaosFSM(t *testing.T) {
	raw := workload.Community("chaos-c", 6, 15, 6, 0.8, 4, 33)
	base := chaosCtx(t, nil)
	want, err := FSM(bg, base, base.FromGraph(raw), 8, FSMOptions{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Frequent) == 0 {
		t.Fatal("degenerate FSM baseline: nothing frequent")
	}
	for seed := 1; seed <= chaosSeeds(t); seed++ {
		rng := rand.New(rand.NewSource(int64(200 + seed)))
		script, label := chaosSchedule(rng, true)
		ctx := chaosCtx(t, script)
		got, err := FSM(bg, ctx, ctx.FromGraph(raw), 8, FSMOptions{MaxEdges: 2})
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, label, err)
		}
		fired(t, script, fmt.Sprintf("seed %d (%s)", seed, label))
		if len(got.Frequent) != len(want.Frequent) {
			t.Errorf("seed %d (%s): %d frequent patterns, want %d",
				seed, label, len(got.Frequent), len(want.Frequent))
		}
		for code, ds := range want.Frequent {
			gds, ok := got.Frequent[code]
			if !ok {
				t.Errorf("seed %d (%s): pattern %q lost under faults", seed, label, code)
				continue
			}
			if gds.Support() != ds.Support() {
				t.Errorf("seed %d (%s): pattern %q support %d, want %d",
					seed, label, code, gds.Support(), ds.Support())
			}
		}
		for i, n := range want.PerLevel {
			if i >= len(got.PerLevel) || got.PerLevel[i] != n {
				t.Errorf("seed %d (%s): PerLevel=%v, want %v", seed, label, got.PerLevel, want.PerLevel)
				break
			}
		}
	}
}

// frameCounter counts the aggregation frames one worker ships to the master,
// in front of an optional fault script.
type frameCounter struct {
	worker rpc.NodeID
	script *rpc.Script
	frames atomic.Int64
}

func (c *frameCounter) Intercept(from, to rpc.NodeID, kind uint8) rpc.Fault {
	if from == c.worker && to == rpc.Master && kind == sched.KindAggData {
		c.frames.Add(1)
	}
	if c.script == nil {
		return rpc.Fault{}
	}
	return c.script.Intercept(from, to, kind)
}

// TestChaosMiddleFrameDropped loses one frame out of the middle of a
// worker's sequence — the third of the eight that carry its level-3 supports
// of the fsm_ml analog, with the frames before and after it delivered. The
// master must not fold what it has: the count falls short of the worker's
// Sent, the silence convicts the worker, and the retry commits the
// fault-free result, byte for byte.
//
// The support is 12, not the benchmark's 50: since a level refuses the
// classes with an infrequent sub-pattern before it aggregates them, a
// worker's level-3 partial at support 50 is two frames and has no middle. A
// lower support keeps the graph and the three levels (a fourth edge level
// would cost ten seconds a run) and gives the partial 1 116 patterns to
// carry instead of 98.
func TestChaosMiddleFrameDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("two fsm_ml-sized jobs")
	}
	raw := fsmMLAnalog()
	// The race detector slows the two busy cores enough to starve a worker's
	// status reports past 400 ms on a two-CPU host; the loss is then detected
	// five times later, which only this test's wall clock sees.
	timeout := 400 * time.Millisecond
	if raceEnabled {
		timeout *= 5
	}
	mine := func(inj *frameCounter) (*FSMResult, []byte) {
		t.Helper()
		ctx, err := fractal.NewContext(
			fractal.WithWorkers(2), fractal.WithCores(1), fractal.WithFaultInjector(inj),
			fractal.WithStepRetries(2), fractal.WithWorkerTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Close()
		res, err := FSM(bg, ctx, ctx.FromGraph(raw), 12, FSMOptions{MaxEdges: 3})
		if err != nil {
			t.Fatal(err)
		}
		st, ok := res.Last.Aggregations.Get(fsmSupName(3))
		if !ok {
			t.Fatal("no level-3 supports")
		}
		data, err := st.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return res, data
	}
	clean := &frameCounter{worker: 1}
	want, wantBytes := mine(clean)
	// Levels 1 and 2 take one and two frames (38 and 179 KB over both
	// workers); level 3 must take at least five for the sixth frame overall
	// to have level-3 frames on both sides.
	if n := clean.frames.Load(); n < 8 {
		t.Fatalf("worker 1 ships %d frames over the three levels, want at least 8", n)
	}
	script := rpc.NewScript(rpc.DropRule(1, rpc.Master, sched.KindAggData, 5, 1))
	got, gotBytes := mine(&frameCounter{worker: 1, script: script})
	if st := script.Stats(); st.Dropped != 1 {
		t.Fatalf("the script dropped %d frames, want 1", st.Dropped)
	}
	requireLossObserved(t, script, got.Last, "middle frame dropped")
	if !slices.Equal(got.PerLevel, want.PerLevel) || !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("per level %v in %d bytes after the loss, %v in %d without", got.PerLevel, len(gotBytes), want.PerLevel, len(wantBytes))
	}
}

// TestChaosCliquesTCP repeats one sever schedule on a master's two
// ServeWorkers: the injector sits in front of the real sockets, so retry
// must recover there exactly as over loopback mailboxes.
func TestChaosCliquesTCP(t *testing.T) {
	raw := workload.ErdosRenyi("chaos-er-tcp", 50, 180, 1, 34)
	base := chaosCtx(t, nil)
	want, _, err := Cliques(bg, base, base.FromGraph(raw), 4)
	if err != nil {
		t.Fatal(err)
	}
	script := rpc.NewScript(rpc.SeverRule(1, rpc.Master, sched.KindStatusReport, 0, 1))
	master := distMaster(t, fractal.WithWorkerTimeout(400*time.Millisecond))
	// Worker IDs follow registration order: both send through the script,
	// whose rule severs the second.
	for n := 1; n <= 2; n++ {
		startWorker(t, master.ListenAddr(), fractal.WorkerOptions{FaultInjector: script})
		if err := master.AwaitWorkers(context.Background(), n); err != nil {
			t.Fatal(err)
		}
	}
	got, res, err := Cliques(bg, master, loadOn(t, master, writeGraphFile(t, raw)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cliques over TCP under faults=%d, want %d", got, want)
	}
	requireLossObserved(t, script, res, "tcp sever worker 1 "+atStatusReport+" 0")
}

// TestChaosCliquesFGR repeats the clique chaos runs over a memory-mapped
// .fgr graph: worker loss and step retry must be invisible to the storage
// layer — counts stay bit-identical to the fault-free in-memory baseline
// while every enumeration reads straight out of the mapping.
func TestChaosCliquesFGR(t *testing.T) {
	raw := workload.ErdosRenyi("chaos-fgr", 60, 220, 2, 33)
	chaosCliques(t, raw, mmapGraph(t, raw), 400)
}
