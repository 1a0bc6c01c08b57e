package obs

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func TestNewRequestIDUnique(t *testing.T) {
	const n = 1000
	seen := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				id := NewRequestID()
				if len(id) != 16 {
					t.Errorf("request ID %q has length %d, want 16", id, len(id))
					return
				}
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate request ID %q", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Fatalf("RequestID of bare context = %q, want empty", got)
	}
	ctx = WithRequestID(ctx, "abc123")
	if got := RequestID(ctx); got != "abc123" {
		t.Fatalf("RequestID = %q, want abc123", got)
	}
}

func TestStageTimerMark(t *testing.T) {
	st := NewStageTimer()
	st.Add("degrees", 100*time.Millisecond)
	st.Add("attrs", 200*time.Millisecond)
	st.Add("degrees", 50*time.Millisecond) // repeated stage accumulates

	stages := st.Stages()
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(stages))
	}
	if stages[0].Name != "degrees" || stages[1].Name != "attrs" {
		t.Fatalf("stage order = %s, %s; want degrees, attrs (first-seen order)", stages[0].Name, stages[1].Name)
	}
	if got := stages[0].Seconds; math.Abs(got-0.15) > 1e-9 {
		t.Fatalf("degrees = %v, want 0.15", got)
	}
	if got := stages[1].Seconds; math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("attrs = %v, want 0.2", got)
	}
}

func TestStageTimerAddConcurrent(t *testing.T) {
	st := NewStageTimer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st.Add("generate", time.Millisecond)
			}
		}()
	}
	wg.Wait()
	stages := st.Stages()
	if len(stages) != 1 {
		t.Fatalf("got %d stages, want 1", len(stages))
	}
	want := 0.8 // 8 workers × 100 × 1ms
	if got := stages[0].Seconds; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("accumulated = %v, want %v", got, want)
	}
}

func TestStageTimerEmpty(t *testing.T) {
	if got := NewStageTimer().Stages(); got != nil {
		t.Fatalf("empty timer stages = %+v, want nil", got)
	}
}
