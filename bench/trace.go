package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// rootSpan names the span that covers one whole op. Its self time — op wall
// time no layer span accounts for — is reported as unaccounted.
const rootSpan = "bench.op"

// span is one timed call the benchmark made into a layer of the system, or
// one op as a whole (rootSpan, parent 0). Times are nanoseconds since the
// tracer's origin. Spans of one op share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced phases run: every method is a no-op on nil.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span starting at start and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, parent int64, name string, start time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start.Sub(t.origin).Nanoseconds()})
	return id
}

// end closes span id at end.
func (t *tracer) end(id int64, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(op, parent int64, name string, start, end time.Time) int64 {
	id := t.begin(op, parent, name, start)
	t.end(id, end)
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover. Overlapping children (parallel calls
// under one parent) are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// serverLayer is a layer timed inside the server (or any other process-wide
// timer) rather than by a benchmark span: its total over a phase comes from a
// metrics delta, and it is nested under a fixed parent layer whose self time
// it reduces. An empty parent marks work that runs beside the benchmark's
// spans rather than inside one (a fit job working while its caller polls),
// which is reported but subtracted from nothing.
type serverLayer struct {
	name, parent string
	total        time.Duration
}

// layerSelf combines span self times with timer-derived layers into one self
// time per layer name. Nesting timer layers under each other works in any
// order, since each only subtracts itself from its parent.
func layerSelf(spans []span, timed []serverLayer) map[string]time.Duration {
	self := selfTimes(spans)
	for _, l := range timed {
		self[l.name] += l.total
		if l.parent != "" {
			self[l.parent] -= l.total
		}
	}
	return self
}

// opWall is the summed duration of the root spans: the denominator of every
// layer share.
func opWall(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootSpan {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// formatLayers renders the layer breakdown, largest self time first.
func formatLayers(self map[string]time.Duration, wall time.Duration, ops int) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b []byte
	b = fmt.Appendf(b, "  %-26s %12s %8s\n", "layer (self time)", "ms/op", "share")
	for _, n := range names {
		label := n
		if n == rootSpan {
			label = "unaccounted"
		}
		b = fmt.Appendf(b, "  %-26s %12.3f %7.2f%%\n", label,
			float64(self[n])/float64(time.Millisecond)/float64(max(ops, 1)),
			100*float64(self[n])/float64(max(wall, 1)))
	}
	return string(b)
}
