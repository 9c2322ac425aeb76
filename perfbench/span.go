package main

import (
	"time"

	"kindle/internal/trace"
)

// span is one timed call from the benchmark into a simulator layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the top
	Run    int    `json:"run"`    // traced iteration the span belongs to
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark writes them out. Calls
// on a nil *tracer record nothing, so the untraced runs share the same code
// path at the cost of a nil check per call.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
	open  []int // indices of the spans begun and not yet ended, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Run: t.run})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
}

// selfTimes returns each span's duration minus the durations of its direct
// children.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// spanTotals sums, per span name, the durations and self times of the
// spans of traced iteration run.
func spanTotals(spans []span, run int) (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	st := selfTimes(spans)
	for i, s := range spans {
		if s.Run != run {
			continue
		}
		total[s.Name] += s.dur()
		self[s.Name] += st[i]
	}
	return total, self
}

// tracedSource records a span around every Next call of the source it
// wraps; replay is blocked for exactly that long waiting on decode.
type tracedSource struct {
	trace.RecordSource
	tr *tracer
}

func (s tracedSource) Next() ([]trace.Record, error) {
	s.tr.begin("trace.Next")
	defer s.tr.end()
	return s.RecordSource.Next()
}
