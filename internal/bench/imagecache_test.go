package bench

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kindle/internal/core"
	"kindle/internal/trace"
)

// TestImageCacheTracesEachKeyOnce hammers the cache from many goroutines:
// every caller of a key must get the same image, each key must be traced
// exactly once, and different keys must trace concurrently (the first
// key's generation waits for the second's to start, which deadlocks if a
// lock is held across generation).
func TestImageCacheTracesEachKeyOnce(t *testing.T) {
	c := newImageCache()
	var traced sync.Map // imageKey -> *atomic.Int32
	ssspStarted := make(chan struct{})
	c.trace = func(benchmark string, ops int) (*trace.Image, error) {
		n, _ := traced.LoadOrStore(imageKey{benchmark, ops}, new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
		switch benchmark {
		case core.BenchSSSP:
			close(ssspStarted)
		case core.BenchPageRank:
			select {
			case <-ssspStarted:
			case <-time.After(10 * time.Second):
				return nil, fmt.Errorf("%s generation never overlapped %s's", benchmark, core.BenchSSSP)
			}
		}
		return &trace.Image{Benchmark: benchmark}, nil
	}

	benchmarks := []string{core.BenchPageRank, core.BenchSSSP}
	const callers = 16
	got := make([]*trace.Image, len(benchmarks)*callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			img, err := c.get(benchmarks[i%len(benchmarks)], 1000)
			if err != nil {
				t.Error(err)
			}
			got[i] = img
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, img := range got {
		if img == nil || img != got[i%len(benchmarks)] {
			t.Fatalf("caller %d got image %p, want the shared %p", i, img, got[i%len(benchmarks)])
		}
	}
	for _, b := range benchmarks {
		n, ok := traced.Load(imageKey{b, 1000})
		if !ok || n.(*atomic.Int32).Load() != 1 {
			t.Fatalf("%s traced %v times, want once", b, n)
		}
	}

	// A different trace length is a different image.
	other, err := c.get(core.BenchPageRank, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] {
		t.Fatal("different ops shared one image")
	}
}

// TestImageCacheErrorsNotCached requires a failed generation to reach every
// concurrent caller and leave no entry behind (so nothing can later be
// served a nil image).
func TestImageCacheErrorsNotCached(t *testing.T) {
	c := newImageCache()
	const callers = 8
	errs := make([]error, callers)
	imgs := make([]*trace.Image, callers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			imgs[i], errs[i] = c.get("no-such-benchmark", 1000)
		}()
	}
	wg.Wait()
	for i := range errs {
		if errs[i] == nil || imgs[i] != nil {
			t.Fatalf("caller %d got (%p, %v), want (nil, error)", i, imgs[i], errs[i])
		}
	}
	if len(c.entries) != 0 {
		t.Fatalf("failed generation left %d cache entries", len(c.entries))
	}
}

// TestRunAllSharedImagesIdentity pins that sharing workload images across
// RunAll's experiments changes no simulated number: the suite CSV equals
// the one assembled from standalone TableII, Fig5, HSCCAll and ImageSizes
// calls, each of which traces its own images.
func TestRunAllSharedImagesIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	all, err := RunAll(smokeOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	alone := *all
	if alone.TableII, err = TableII(smokeOpts); err != nil {
		t.Fatal(err)
	}
	if alone.Fig5, err = Fig5(smokeOpts); err != nil {
		t.Fatal(err)
	}
	if alone.TableV, alone.Fig6, alone.TableVI, err = HSCCAll(smokeOpts); err != nil {
		t.Fatal(err)
	}
	if alone.ImageSizes, err = ImageSizes(smokeOpts); err != nil {
		t.Fatal(err)
	}
	if a, b := all.RenderCSV(), alone.RenderCSV(); a != b {
		t.Errorf("shared-image CSV differs from standalone:\n--- RunAll ---\n%s\n--- standalone ---\n%s", a, b)
	}
	if a, b := all.Render(), alone.Render(); a != b {
		t.Errorf("shared-image Render differs from standalone:\n--- RunAll ---\n%s\n--- standalone ---\n%s", a, b)
	}
}

// TestRunExtensionsMatchesStandalone requires RunExtensions to return the
// six extension studies in order, each rendering exactly as its standalone
// call does.
func TestRunExtensionsMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	got, err := RunExtensions(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	standalone := []func(Options) (Experiment, error){
		func(o Options) (Experiment, error) { return ExtConsolidation(o) },
		func(o Options) (Experiment, error) { return ExtNVMTech(o) },
		func(o Options) (Experiment, error) { return ExtWriteBuffer(o) },
		func(o Options) (Experiment, error) { return ExtContextSwitch(o) },
		func(o Options) (Experiment, error) { return ExtCheckCost(o) },
		func(o Options) (Experiment, error) { return ExtRecoveryTime(o) },
	}
	if len(got) != len(standalone) {
		t.Fatalf("RunExtensions returned %d results, want %d", len(got), len(standalone))
	}
	for i, run := range standalone {
		want, err := run(smokeOpts)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(got[i]) != reflect.TypeOf(want) {
			t.Fatalf("result %d is %T, want %T", i, got[i], want)
		}
		if g, w := got[i].Render(), want.Render(); g != w {
			t.Errorf("result %d (%T) differs from standalone:\n--- RunExtensions ---\n%s\n--- standalone ---\n%s", i, want, g, w)
		}
	}
}
