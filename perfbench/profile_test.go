package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"kindle/internal/workloads"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		// flate inflating under the trace decoder is charged to trace.
		{[]string{"compress/flate.(*decompressor).huffSym", "kindle/internal/trace.(*pipeline).decode", "kindle/internal/core.(*Replay).Step"}, "trace"},
		// the innermost kindle/internal frame wins over outer ones.
		{[]string{"kindle/internal/cache.(*Cache).Access", "kindle/internal/cpu.(*Core).Access", "main.main"}, "cache"},
		// a subpackage is charged to its top-level layer.
		{[]string{"kindle/internal/obs/monitor.(*Hub).Publish"}, "obs"},
		{[]string{"kindle/internal/sim.Counter.Add"}, "sim"},
		// no kindle/internal frame: the Go runtime.
		{[]string{"runtime.mallocgc", "main.(*ycsbStream).run", "main.main"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestProfileLayersDecodesRealProfile decodes a real CPU profile of
// workloads.GenRMAT and charges it to the layers GenRMAT runs in.
func TestProfileLayersDecodesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		workloads.GenRMAT(1<<14, 8, 1)
	}
	pprof.StopCPUProfile()
	layers, err := profileLayers(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if layers["workloads"] == 0 {
		t.Fatalf("no CPU charged to workloads (layers %v)", layers)
	}
	// GenRMAT draws from sim.RNG and allocates (runtime); every other
	// kindle/internal layer should be idle.
	for l, d := range layers {
		if l != "workloads" && l != "sim" && l != "runtime" {
			t.Errorf("%v charged to %s, which the profiled code never calls", d, l)
		}
	}
}

func TestProfileLayersRejectsGarbage(t *testing.T) {
	if _, err := profileLayers([]byte("not a profile")); err == nil {
		t.Error("profileLayers accepted bytes that are not a gzipped profile")
	}
}
