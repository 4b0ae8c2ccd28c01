package metrics

import (
	"encoding/json"
	"testing"
	"time"
)

func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector(2)
	c.AddExtensionTests(0, 10)
	c.AddExtensionTests(1, 4)
	c.AddSubgraphs(0, 3)
	c.AddInternalSteal()
	c.AddExternalSteal(256)
	c.AddStealTime(2*time.Millisecond, 0)
	c.AddBusyTime(50 * time.Millisecond)
	c.AddIdleTime(5 * time.Millisecond)
	c.ObserveStateBytes(4096)
	c.AddAbandonedExts(7)

	s := c.Snapshot()
	if s.ExtensionTests != 14 || s.Subgraphs != 3 {
		t.Errorf("EC=%d subgraphs=%d, want 14/3", s.ExtensionTests, s.Subgraphs)
	}
	if s.StealsInternal != 1 || s.StealsExternal != 1 || s.StealBytes != 256 {
		t.Errorf("steals=%d/%d bytes=%d", s.StealsInternal, s.StealsExternal, s.StealBytes)
	}
	if s.StealTimeNs != int64(2*time.Millisecond) ||
		s.BusyTimeNs != int64(50*time.Millisecond) ||
		s.IdleTimeNs != int64(5*time.Millisecond) {
		t.Errorf("times steal=%d busy=%d idle=%d", s.StealTimeNs, s.BusyTimeNs, s.IdleTimeNs)
	}
	if s.PeakStateBytes != 4096 || s.AbandonedExts != 7 {
		t.Errorf("peak=%d abandoned=%d", s.PeakStateBytes, s.AbandonedExts)
	}
	// Work units: extension tests + subgraph emissions per core.
	if len(s.CoreWork) != 2 || s.CoreWork[0] != 13 || s.CoreWork[1] != 4 {
		t.Errorf("core work=%v, want [13 4]", s.CoreWork)
	}
	if b := s.Balance(); b.Total != 17 || b.Makespan != 13 {
		t.Errorf("balance=%+v", b)
	}

	// The snapshot is a copy: later mutation must not show through.
	c.AddSubgraphs(0, 100)
	if s.Subgraphs != 3 || s.CoreWork[0] != 13 {
		t.Error("snapshot aliased live counters")
	}

	// The schema is stable JSON.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ExtensionTests != s.ExtensionTests || back.CoreWork[1] != s.CoreWork[1] {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
}

func TestCollectorIdleAndStealTime(t *testing.T) {
	c := NewCollector(1)
	c.AddBusyTime(30 * time.Millisecond)
	c.AddIdleTime(10 * time.Millisecond)
	c.AddStealTime(5*time.Millisecond, 0)
	if c.BusyTime() != 30*time.Millisecond {
		t.Errorf("busy=%v", c.BusyTime())
	}
	if c.IdleTime() != 10*time.Millisecond {
		t.Errorf("idle=%v", c.IdleTime())
	}
	if c.StealTime() != 5*time.Millisecond {
		t.Errorf("steal=%v", c.StealTime())
	}
}
