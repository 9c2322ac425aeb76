package main

import (
	"testing"
	"time"
)

func TestSelfTimesNestedAndSiblings(t *testing.T) {
	// iteration [0,100) holds two sibling children [10,40) and [50,90);
	// the second holds a grandchild [60,70).
	spans := []span{
		{Name: "iteration", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 90, Parent: 0},
		{Name: "c", Start: 60, End: 70, Parent: 2},
	}
	want := []time.Duration{100 - 30 - 40, 30, 40 - 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSpanTotalsByRun(t *testing.T) {
	spans := []span{
		{Name: "iteration", Start: 0, End: 10, Parent: -1, Run: 0},
		{Name: "trace.Next", Start: 1, End: 3, Parent: 0, Run: 0},
		{Name: "iteration", Start: 20, End: 40, Parent: -1, Run: 1},
		{Name: "trace.Next", Start: 21, End: 24, Parent: 2, Run: 1},
		{Name: "trace.Next", Start: 30, End: 35, Parent: 2, Run: 1},
	}
	total, self := spanTotals(spans, 1)
	if total["trace.Next"] != 8 || total["iteration"] != 20 {
		t.Errorf("run 1 totals = %v, want trace.Next 8 and iteration 20", total)
	}
	if self["iteration"] != 12 {
		t.Errorf("run 1 iteration self time = %v, want 12", self["iteration"])
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.begin("sibling")
	tr.end()
	tr.end()
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	for i, want := range []int{-1, 0, 0} {
		if got := tr.spans[i].Parent; got != want {
			t.Errorf("span %s parent = %d, want %d", tr.spans[i].Name, got, want)
		}
	}
	var none *tracer
	none.begin("ignored") // a nil tracer records nothing and must not panic
	none.end()
}
