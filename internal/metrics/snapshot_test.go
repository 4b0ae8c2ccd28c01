package metrics

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// coreBlock is what one core hands over at the end of a step: its counters
// and its one CoreWork entry.
func coreBlock(ec, subgraphs int64) Snapshot {
	s := Snapshot{ExtensionTests: ec, Subgraphs: subgraphs}
	s.CoreWork = []int64{s.Work()}
	return s
}

// TestSnapshotAdd pins the one accumulation rule: every counter sums and
// the added block's cores follow the receiver's, at both levels it is used
// at (cores into a worker, workers into a step).
func TestSnapshotAdd(t *testing.T) {
	c0, c1 := coreBlock(10, 3), coreBlock(4, 0)
	c0.StealsInternal, c0.BusyTimeNs, c0.IdleTimeNs = 1, int64(50*time.Millisecond), int64(5*time.Millisecond)
	c1.StealsExternal, c1.StealBytes, c1.StealTimeNs, c1.AbandonedExts = 1, 256, int64(2*time.Millisecond), 7
	c0.QuickPatterns, c0.CanonCalls, c1.QuickPatterns, c1.CanonCalls = 5, 4, 2, 2
	c0.ClassesPruned, c0.SubgraphsPruned, c1.ClassesPruned, c1.SubgraphsPruned = 3, 40, 1, 2

	var w0 Snapshot
	w0.Add(c0)
	w0.Add(c1)
	w0.PeakStateBytes, w0.AggShippedBytes, w0.AggMergeTimeNs = 4096, 100, 9
	want := Snapshot{
		ExtensionTests: 14, Subgraphs: 3, StealsInternal: 1, StealsExternal: 1, StealBytes: 256,
		StealTimeNs: int64(2 * time.Millisecond), BusyTimeNs: int64(50 * time.Millisecond), IdleTimeNs: int64(5 * time.Millisecond),
		PeakStateBytes: 4096, AbandonedExts: 7, AggMergeTimeNs: 9, AggShippedBytes: 100,
		QuickPatterns: 7, CanonCalls: 6, ClassesPruned: 4, SubgraphsPruned: 42,
		CoreWork: []int64{13, 4},
	}
	if !reflect.DeepEqual(w0, want) {
		t.Errorf("worker block\n got  %+v\n want %+v", w0, want)
	}
	if b := w0.Balance(); b.Total != 17 || b.Makespan != 13 {
		t.Errorf("balance=%+v", b)
	}

	// Workers into a step, in rank order; per-worker peaks sum.
	w1 := Snapshot{ExtensionTests: 1, PeakStateBytes: 4, CoreWork: []int64{1, 0}}
	var step Snapshot
	step.Add(w0)
	step.Add(w1)
	if step.ExtensionTests != 15 || step.PeakStateBytes != 4100 {
		t.Errorf("step block %+v", step)
	}
	if !reflect.DeepEqual(step.CoreWork, []int64{13, 4, 1, 0}) {
		t.Errorf("core work=%v, want the workers' cores in rank order", step.CoreWork)
	}

	// Add copies: a later change of the added block must not show through.
	w1.CoreWork[0] = 99
	w0.CoreWork[0] = 99
	if step.CoreWork[0] != 13 || step.CoreWork[2] != 1 {
		t.Error("Add aliased the added block's CoreWork")
	}
}

func TestStealOverhead(t *testing.T) {
	if (Snapshot{StealTimeNs: 5}).StealOverhead() != 0 {
		t.Error("overhead with no busy time should be 0")
	}
	s := Snapshot{BusyTimeNs: int64(100 * time.Millisecond), StealTimeNs: int64(time.Millisecond)}
	if ov := s.StealOverhead(); ov < 0.009 || ov > 0.011 {
		t.Errorf("overhead=%v, want ~0.01", ov)
	}
}

// TestSnapshotJSON pins the export schema's field names: RunReport readers
// (the bench harness, fractal-bench -report) parse them.
func TestSnapshotJSON(t *testing.T) {
	s := Snapshot{
		ExtensionTests: 1, Subgraphs: 2, StealsInternal: 3, StealsExternal: 4, StealBytes: 5,
		StealTimeNs: 6, BusyTimeNs: 8, IdleTimeNs: 9, PeakStateBytes: 10,
		AbandonedExts: 11, AggMergeTimeNs: 12, AggShippedBytes: 13, QuickPatterns: 16, CanonCalls: 17,
		ClassesPruned: 18, SubgraphsPruned: 19, CoreWork: []int64{14, 15},
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"extension_tests":1,"subgraphs":2,"steals_internal":3,"steals_external":4,"steal_bytes":5,` +
		`"steal_time_ns":6,"busy_time_ns":8,"idle_time_ns":9,"peak_state_bytes":10,` +
		`"abandoned_exts":11,"agg_merge_time_ns":12,"agg_shipped_bytes":13,"quick_patterns":16,"canon_calls":17,` +
		`"classes_pruned":18,"subgraphs_pruned":19,"core_work":[14,15]}`
	if string(data) != want {
		t.Errorf("schema changed:\n got  %s\n want %s", data, want)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, s) {
		t.Errorf("JSON round trip: %+v (%v)", back, err)
	}
}
