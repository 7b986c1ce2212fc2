package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	ID     uint64 `json:"id"`     // sample or request id: the tick for samples
}

// maxSpans bounds the spans kept in memory; later ones are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory while enabled. A nil tracer or a disabled
// one records nothing, so untraced runs pay one atomic load per call site.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

// begin opens a span and returns its handle, or -1 when not tracing.
func (t *tracer) begin(name string, parent int32, id uint64) int32 {
	if !t.on() {
		return -1
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, ID: id})
	return int32(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(h int32) {
	if h < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// layerStats is the reduction of every closed span of one name.
type layerStats struct {
	Count  int
	BusyNs int64 // summed span durations
	SelfNs int64 // busy time not covered by child spans
	Durs   []float64
}

// reduce folds the kept spans into per-name counts, busy time and self
// time. Children of one span run one after another, so a span's self time
// is its duration minus its children's.
func (t *tracer) reduce() map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerStats)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		d := s.End - s.Start
		ls.Count++
		ls.BusyNs += d
		ls.SelfNs += d - childNs[i]
		ls.Durs = append(ls.Durs, float64(d))
	}
	return out
}

// writeSpans writes the kept spans as JSON lines, then one summary line
// per span name.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	red := t.reduce()
	for _, n := range sortedKeys(red) {
		ls := red[n]
		fmt.Fprintf(w, "{\"summary\":%q,\"count\":%d,\"busy_ns\":%d,\"self_ns\":%d}\n", n, ls.Count, ls.BusyNs, ls.SelfNs)
	}
	fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
