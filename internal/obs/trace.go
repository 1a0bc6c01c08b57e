package obs

// Per-request tracing: request ID generation and context propagation, and
// stage-span recording for multi-stage pipelines (the fit and sample jobs).
// Stage durations are plain wall-clock measurements around existing work;
// they never touch an RNG, so recording them cannot perturb the determinism
// contract.

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDPrefix is a per-process random prefix so IDs from different
// service instances (or restarts) do not collide in aggregated logs.
var requestIDPrefix = func() uint32 {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy failure: fall back to the clock. IDs stay unique within the
		// process via the counter either way.
		return uint32(time.Now().UnixNano())
	}
	return binary.BigEndian.Uint32(b[:])
}()

var requestIDCounter atomic.Uint64

// NewRequestID returns a 16-hex-character request ID, unique within the
// process and prefixed with per-process randomness. The cost is one atomic
// add and one small formatting call; crypto/rand is read once at startup,
// never per request.
func NewRequestID() string {
	return fmt.Sprintf("%08x%08x", requestIDPrefix, uint32(requestIDCounter.Add(1)))
}

// requestIDKey is the context key for the request ID.
type requestIDKey struct{}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the request ID carried by the context, or "" when the
// context has none.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Stage is one named span within a pipeline: its wall-clock duration in
// seconds. Stages are recorded in first-seen order, which for the fit and
// sample pipelines is the execution order.
type Stage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// StageTimer accumulates named stage durations. It is safe for concurrent
// use (a sample job's fan-out workers all add to the same timer); repeated
// stage names accumulate into one span, so per-sample stage times sum into
// per-job totals.
type StageTimer struct {
	mu     sync.Mutex
	stages []Stage
	index  map[string]int
}

// NewStageTimer returns an empty timer.
func NewStageTimer() *StageTimer { return &StageTimer{index: make(map[string]int)} }

// Add accumulates a measured duration into a stage, recording the stage
// after the ones already seen the first time its name appears.
func (t *StageTimer) Add(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index[name]; ok {
		t.stages[i].Seconds += d.Seconds()
		return
	}
	t.index[name] = len(t.stages)
	t.stages = append(t.stages, Stage{Name: name, Seconds: d.Seconds()})
}

// Stages returns a copy of the recorded stages in first-seen order; nil when
// nothing was recorded.
func (t *StageTimer) Stages() []Stage {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stages) == 0 {
		return nil
	}
	out := make([]Stage, len(t.stages))
	copy(out, t.stages)
	return out
}
