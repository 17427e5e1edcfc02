package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// a layer, or cut from the arrival times of a job's stream events.
// Spans of one op share Op; the layer probe uses op -1.
type span struct {
	Name   string  `json:"name"`
	Attr   string  `json:"attr,omitempty"`
	Op     int64   `json:"op"`
	ID     int32   `json:"id"`
	Parent int32   `json:"parent"` // 0 for a root span
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Work   float64 `json:"work,omitempty"` // instructions, references or bytes done inside the span
}

// probeOp marks spans recorded by the layer probe rather than an op.
const probeOp = -1

// tracer keeps spans, per-op samples and counters in memory until the
// run ends. A nil *tracer records nothing, so untraced code paths pass
// nil and pay one nil check per boundary.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	samples  map[string][]float64
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, counters: map[string]float64{}}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, attr string, op int64, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Attr: attr, Op: op, ID: id, Parent: parent, Start: now, End: now})
	return id
}

// end closes span id, crediting it with work units.
func (t *tracer) end(id int32, work float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Work = work
}

// add records a span whose bounds were observed as wall-clock instants.
func (t *tracer) add(name, attr string, op int64, parent int32, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Attr: attr, Op: op, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// sample appends one per-op observation of a named quantity.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// count adds d to a named counter.
func (t *tracer) count(name string, d float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += d
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap (parallel units), so
// the covered part is the union of their clipped intervals.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, hi int64
		hi = s.Start
		for _, iv := range ivs {
			lo, end := max(iv[0], hi), min(iv[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeSpans writes every span, sample and counter as one JSON document.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans    []span               `json:"spans"`
		Samples  map[string][]float64 `json:"samples"`
		Counters map[string]float64   `json:"counters"`
	}{t.spans, t.samples, t.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
