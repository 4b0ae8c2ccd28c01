package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCollectorCounters(t *testing.T) {
	c := NewCollector(2)
	c.AddExtensionTests(0, 10)
	c.AddExtensionTests(1, 5)
	c.AddSubgraphs(0, 3)
	if c.ExtensionTests() != 15 {
		t.Errorf("EC=%d, want 15", c.ExtensionTests())
	}
	if c.Subgraphs() != 3 {
		t.Errorf("subgraphs=%d, want 3", c.Subgraphs())
	}
	cw := c.CoreWork()
	if cw[0] != 13 || cw[1] != 5 {
		t.Errorf("core work=%v, want [13 5]", cw)
	}
	// Out-of-range core must not panic and still count globally.
	c.AddExtensionTests(-1, 1)
	c.AddSubgraphs(99, 1)
	if c.ExtensionTests() != 16 || c.Subgraphs() != 4 {
		t.Error("out-of-range core dropped global counts")
	}
}

func TestSteals(t *testing.T) {
	c := NewCollector(1)
	c.AddInternalSteal()
	c.AddInternalSteal()
	c.AddExternalSteal(128)
	in, ex := c.Steals()
	if in != 2 || ex != 1 {
		t.Errorf("steals=%d/%d, want 2/1", in, ex)
	}
	if c.StealBytes() != 128 {
		t.Errorf("steal bytes=%d", c.StealBytes())
	}
}

func TestStealOverhead(t *testing.T) {
	c := NewCollector(1)
	if c.StealOverhead() != 0 {
		t.Error("overhead with no busy time should be 0")
	}
	c.AddBusyTime(100 * time.Millisecond)
	c.AddStealTime(time.Millisecond, 0)
	if ov := c.StealOverhead(); ov < 0.009 || ov > 0.011 {
		t.Errorf("overhead=%v, want ~0.01", ov)
	}
}

func TestObserveStateBytesMonotone(t *testing.T) {
	c := NewCollector(1)
	c.ObserveStateBytes(100)
	c.ObserveStateBytes(50)
	c.ObserveStateBytes(200)
	if c.PeakStateBytes() != 200 {
		t.Errorf("peak=%d, want 200", c.PeakStateBytes())
	}
}

func TestObserveStateBytesConcurrent(t *testing.T) {
	c := NewCollector(1)
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			c.ObserveStateBytes(n)
		}(int64(i))
	}
	wg.Wait()
	if c.PeakStateBytes() != 64 {
		t.Errorf("peak=%d, want 64", c.PeakStateBytes())
	}
}

func TestBalance(t *testing.T) {
	b := BalanceOf([]int64{10, 10, 10, 10})
	if b.Efficiency != 1.0 || b.Makespan != 10 || b.Total != 40 {
		t.Errorf("perfect balance got %+v", b)
	}
	b = BalanceOf([]int64{40, 0, 0, 0})
	if b.Efficiency != 0.25 {
		t.Errorf("skewed efficiency=%v, want 0.25", b.Efficiency)
	}
	if b.PerCore[0] != 40 || b.PerCore[3] != 0 {
		t.Errorf("PerCore not sorted descending: %v", b.PerCore)
	}
	empty := BalanceOf(nil)
	if empty.Efficiency != 0 || empty.Cores != 0 {
		t.Errorf("empty balance got %+v", empty)
	}
}

func TestEmbeddingBytes(t *testing.T) {
	if EmbeddingBytes(4, 0) != 16 {
		t.Error("4 vertices should be 16 bytes")
	}
	if EmbeddingBytes(3, 3) != 24 {
		t.Error("triangle should be 24 bytes")
	}
}

func TestString(t *testing.T) {
	if NewCollector(2).String() == "" {
		t.Error("empty String")
	}
}
