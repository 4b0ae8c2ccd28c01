package metrics

import "testing"

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
