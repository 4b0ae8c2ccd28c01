package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestTraceKindStringAndJSONRoundTrip(t *testing.T) {
	kinds := []TraceEventKind{
		TraceStepStart, TraceStepEnd, TraceQuiescenceRound,
		TraceStealAttempt, TraceCancel, TraceDrain, TraceWorkerLost,
		TraceStepRetry, TraceStealDecline,
	}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty String", k)
		}
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back TraceEventKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	var k TraceEventKind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Error("unknown kind name accepted")
	}
}

func TestTracerEmitOrder(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 10; i++ {
		tr.Emit(TraceEvent{Kind: TraceStealAttempt, Core: i})
	}
	if tr.Len() != 10 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 10/0", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.Seq != int64(i) || ev.Core != i {
			t.Errorf("event %d: seq=%d core=%d", i, ev.Seq, ev.Core)
		}
		if i > 0 && ev.At < evs[i-1].At {
			t.Errorf("event %d: At went backwards (%v < %v)", i, ev.At, evs[i-1].At)
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Emit(TraceEvent{Kind: TraceStealAttempt, Value: int64(i)})
	}
	if tr.Len() != 8 {
		t.Errorf("len=%d, want 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Errorf("dropped=%d, want 12", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("Events returned %d, want 8", len(evs))
	}
	// The oldest retained event is seq 12; order must be 12..19.
	for i, ev := range evs {
		want := int64(12 + i)
		if ev.Seq != want || ev.Value != want {
			t.Errorf("event %d: seq=%d value=%d, want %d", i, ev.Seq, ev.Value, want)
		}
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		tr := NewTracer(capacity)
		tr.Emit(TraceEvent{Kind: TraceStepStart})
		if tr.Len() != 1 {
			t.Errorf("NewTracer(%d): len=%d after one emit", capacity, tr.Len())
		}
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	const goroutines, each = 8, 100
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Emit(TraceEvent{Kind: TraceStealAttempt, Core: g})
			}
		}(g)
	}
	wg.Wait()
	total := int64(goroutines * each)
	if got := tr.Dropped() + int64(tr.Len()); got != total {
		t.Errorf("dropped+retained=%d, want %d", got, total)
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Errorf("retained events not contiguous at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
