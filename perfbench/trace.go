package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public API. The layer is the name up to the first dot.
// Spans of one request (one designer cycle, one layer pass) share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the record file receives them when the
// run ends. A nil tracer records nothing, which is how the untraced runs
// that measure the end-to-end metrics stay free of tracing work.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child records a span whose duration the program reported (a barrier's
// duration_ns, a job's queued_ns) rather than one the benchmark timed.
// It is placed at offset after its parent's start, so its duration is
// exact and its position within the parent approximate.
func (t *tracer) child(name string, parent int, offset, dur time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start := p.Start + offset.Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: p.Req, Name: name,
		Start: start, End: start + dur.Nanoseconds()})
}

// layer is the layer a span belongs to.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part of each span that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := int64(0)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		cur := s.Start // union of child intervals, clipped to the span
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[layer(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"netlist", "switchsim", "stage", "core", "incremental", "server", "jobs"}

// summarize adds the span-derived metrics to a traced result: the span
// count, each program layer's share of the program's traced self time (a
// share, so runs of
// different lengths compare), and the tracing overhead. The overhead
// is measured, not differenced against an untraced run: the cost of one
// begin/end pair is timed here and multiplied by the number of spans,
// which keeps a microsecond-scale cost out of run-to-run noise that is
// orders of magnitude larger.
func (t *tracer) summarize(r *result) {
	t.mu.Lock()
	r.spans = append([]span(nil), t.spans...)
	wall := time.Since(t.t0)
	t.mu.Unlock()

	// The shares are of the program layers' self time only: the
	// benchmark's own spans (layer "bench") are left out of the total.
	self := selfTimes(r.spans)
	var total time.Duration
	for _, l := range selfLayers {
		total += self[l]
	}
	for _, l := range selfLayers {
		r.set(l+".self_pct", 100*float64(self[l])/float64(max(total, 1)), len(r.spans))
	}
	const calib = 10000
	probe := newTracer()
	start := time.Now()
	for i := 0; i < calib; i++ {
		probe.end(probe.begin("probe", "", -1))
	}
	perSpan := time.Since(start) / calib
	r.set("trace.spans", float64(len(r.spans)), 1)
	r.set("trace.overhead_pct", 100*float64(perSpan)*float64(len(r.spans))/float64(wall), calib)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
