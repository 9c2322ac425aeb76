// Command perfbench is Kindle's repository benchmark. It drives the
// simulator through its public API (core, trace, workloads, traffic and
// bench) on one named workload, measures host-side end-to-end metrics for a
// fixed wall-clock budget, checks every simulated output against recorded
// digests, and prints one JSON result line last. With --trace 1 it instead
// alternates untraced and traced iterations and reports per-layer metrics
// from spans, a CPU profile and simulator counters. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload ycsb-stream --seed 1 --seconds 55 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the host-side metrics a user waits on; every workload
// reports all of them (see README.md for what records and ops count on
// each). error_rate is printed in the report; the JSON line carries it as
// failed/attempted, since a metric that reads 0 cannot bound a regression.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"records_per_s", "records/s"},
	{"ops_per_s", "ops/s"},
	{"rss_peak_mb", "MB"},
}

// layers are the kindle/internal packages CPU samples are charged to,
// plus the runtime bucket for stacks outside them.
var layers = []string{"bench", "cache", "core", "cpu", "fault", "gemos", "hscc", "machine",
	"mem", "obs", "persist", "prep", "pt", "sim", "ssp", "tlb", "trace", "traffic", "workloads", "runtime"}

// benchSpans are the suite experiments the traced run times one by one.
var benchSpans = []string{"tableII", "fig4a", "fig4b", "tableIII", "tableIV", "fig5", "hscc", "intervals", "imagesizes"}

// perLayer lists the traced run's metrics. Metrics a workload does not
// exercise read 0 (counters on the suite, whose machines live inside
// bench; decode stalls off ycsb-stream; bench spans off the suite).
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"trace.next_wait_ms", "ms"},
		metricDef{"trace.next_wait_share", "fraction"},
		metricDef{"trace.reorder_stall_ms", "ms"},
		metricDef{"trace.buffer_stall_ms", "ms"},
		metricDef{"trace.chunks", "count"},
		metricDef{"tlb.l1_hit_ratio", "ratio"},
		metricDef{"tlb.l2_hit_ratio", "ratio"},
		metricDef{"tlb.l1.miss", "count"},
		metricDef{"pt.walk", "count"},
		metricDef{"pt.install", "count"},
		metricDef{"cache.l1_hit_ratio", "ratio"},
		metricDef{"cache.llc.miss", "count"},
		metricDef{"cache.writeback", "count"},
		metricDef{"nvm.write", "count"},
		metricDef{"nvm.write_stall", "count"},
		metricDef{"dram.row_hit_ratio", "ratio"},
		metricDef{"os.context_switch", "count"},
		metricDef{"os.fault_demand", "count"},
		metricDef{"persist.recover_ms", "ms"},
		metricDef{"persist.checkpoints", "count"},
		metricDef{"traffic.ops", "count"},
		metricDef{"core.boot_ms", "ms"},
		metricDef{"core.step_ms", "ms"},
	)
	for _, b := range benchSpans {
		defs = append(defs, metricDef{"bench." + b + "_s", "s"})
	}
	return append(defs,
		metricDef{"runtime.gc_cpu_ms", "ms"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"tracing.overhead_s", "s"},
	)
}

const (
	// defaultSeed is the seed to develop against; heldOutSeed is the one
	// a performance claim must also hold on (see README.md).
	defaultSeed = 1
	heldOutSeed = 2718

	// minSetups is how often set-up runs before the first iteration, for a
	// median. A set-up shorter than setupBatch is timed in batches that
	// fill setupBatch, each batch's mean one sample, and one more batch is
	// timed before every iteration: host speed drifts over seconds here,
	// and a microsecond set-up timed only at the start would read one
	// moment of it where wall_s reads the whole run.
	minSetups  = 3
	setupBatch = 20 * time.Millisecond
)

// traceDir receives a traced run's spans and CPU profile.
var traceDir = filepath.Join(".bench_build", "traces")

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all of them in turn")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 55, "wall-clock seconds of timed iterations, per workload")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	var ws []workload
	for _, n := range names {
		w, err := newWorkload(n)
		if err != nil {
			fail(2, err)
		}
		ws = append(ws, w)
	}
	if *traced < 0 || *traced > 1 {
		fail(2, fmt.Errorf("--trace must be 0 or 1, not %d", *traced))
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	for i, w := range ws {
		r, err := measure(w, names[i], *seed, budget, *traced == 1)
		ws[i] = nil // drop the inputs before the next workload sets up
		if err != nil {
			fail(1, err)
		}
		if len(ws) == 1 {
			res = r
		} else {
			res = res.merge(names[i], r)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(1, err)
	}
	fmt.Println(string(line))
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(code)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// merge folds workload name's result r into res (nil for none yet),
// prefixing r's metric names with the workload's.
func (res *result) merge(name string, r *result) *result {
	if res == nil {
		res = &result{Correct: true, Metrics: map[string]metricValue{}}
	}
	res.Correct = res.Correct && r.Correct
	res.Attempted += r.Attempted
	res.Failed += r.Failed
	for k, v := range r.Metrics {
		res.Metrics[name+"."+k] = v
	}
	return res
}

// iteration is one timed run of the workload.
type iteration struct {
	traced  bool
	wall    time.Duration
	cpu     time.Duration
	rssPeak uint64 // bytes
	out     outcome
	layer   map[string]float64 // traced iterations: per-layer metrics
}

// measure sets the workload up, runs iterations until budget has passed
// and reduces them to metrics, printing a human-readable report first.
func measure(w workload, name string, seed uint64, budget time.Duration, traced bool) (*result, error) {
	setup := &setupTimer{w: w, seed: seed}
	if err := setup.start(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	chk := newChecker(name, seed)
	var iters []iteration
	var tr *tracer
	var prof []byte
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced iterations, starting
		// untraced, so the difference of their medians is the overhead.
		on := traced && i%2 == 1
		if i > 0 && setup.short() {
			if err := setup.sample(); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", name, err)
			}
		}
		it, p, err := runIteration(w, tr, on)
		if err := chk.record(it.out, err); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d failed: %v\n", name, i, err)
		} else {
			iters = append(iters, it)
			if on {
				prof = p
			}
		}
		if on {
			tr.run++
		}
		if time.Since(start) >= budget && (!traced || i >= 1) {
			break
		}
	}

	res := &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("perfbench %s: seed %d, %d set-ups, %d iterations in %.1f s, traced=%v\n",
		name, seed, setup.runs, chk.attempted, time.Since(start).Seconds(), traced)
	fmt.Printf("  %-26s %14.6f %s (%d failed of %d)\n", "error_rate", chk.rate(), "fraction", chk.failed, chk.attempted)
	fmt.Printf("  output digest %s\n", chk.want)
	var untraced, tracedIters []iteration
	for _, it := range iters {
		if it.traced {
			tracedIters = append(tracedIters, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	if len(untraced) == 0 || (traced && len(tracedIters) == 0) {
		return res, nil // every iteration failed: nothing to measure
	}
	e2e := endToEndValues(untraced, setup.median())
	printWalls(untraced)
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		printMetrics(endToEnd, res.Metrics)
		return res, nil
	}

	tracedWall := median(tracedIters, func(it iteration) float64 { return it.wall.Seconds() })
	overhead := tracedWall - e2e["wall_s"]
	for _, m := range perLayer() {
		// A layer with no profile samples in an iteration is absent from
		// its map and reads 0 there.
		v := median(tracedIters, func(it iteration) float64 { return it.layer[m.name] })
		if m.name == "tracing.overhead_s" {
			v = overhead
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	printMetrics(perLayer(), res.Metrics)
	fmt.Printf("  tracing overhead: traced wall %.4f s - untraced wall %.4f s = %.4f s\n", tracedWall, e2e["wall_s"], overhead)
	if name == "ycsb-stream" {
		printDecodeVerdict(res.Metrics)
	}
	printSpans(tr.spans, tr.run-1)
	if err := writeTrace(traceDir, name, seed, tr.spans, prof); err != nil {
		return nil, err
	}
	return res, nil
}

// setupTimer runs a workload's set-up and keeps the time of each sample.
type setupTimer struct {
	w     workload
	seed  uint64
	batch int       // set-ups per sample
	runs  int       // set-ups so far
	times []float64 // seconds per set-up, one per sample
}

// start doubles the batch from one set-up until a batch fills setupBatch,
// then takes minSetups samples in all, leaving the inputs ready for the
// first iteration.
func (s *setupTimer) start() error {
	s.batch = 1
	for {
		d, err := s.timeBatch()
		if err != nil {
			return err
		}
		if d >= setupBatch {
			s.times = append(s.times, d.Seconds()/float64(s.batch))
			break
		}
		s.batch *= 2
	}
	for len(s.times) < minSetups {
		if err := s.sample(); err != nil {
			return err
		}
	}
	return nil
}

// sample times one batch of set-ups.
func (s *setupTimer) sample() error {
	d, err := s.timeBatch()
	if err != nil {
		return err
	}
	s.times = append(s.times, d.Seconds()/float64(s.batch))
	return nil
}

func (s *setupTimer) timeBatch() (time.Duration, error) {
	t0 := time.Now()
	for j := 0; j < s.batch; j++ {
		if err := s.w.setup(s.seed); err != nil {
			return 0, err
		}
	}
	s.runs += s.batch
	return time.Since(t0), nil
}

// short reports whether set-up is timed in batches, and so again before
// every iteration.
func (s *setupTimer) short() bool { return s.batch > 1 }

func (s *setupTimer) median() float64 { return median(s.times, func(x float64) float64 { return x }) }

// runIteration runs the workload once. Each iteration starts from a
// collected heap with freed memory returned to the OS, so the RSS peak is
// the run's own, not left over from set-up or the previous iteration.
// Traced iterations record spans and a CPU profile, whose bytes are
// returned.
func runIteration(w workload, tr *tracer, traced bool) (iteration, []byte, error) {
	debug.FreeOSMemory()
	it := iteration{traced: traced}
	if !traced {
		tr = nil
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return it, nil, err
		}
	}
	rt0 := readRuntimeMetrics()
	sampler := startRSSSampler()
	cpu0 := cpuTime()
	t0 := time.Now()

	tr.begin("iteration")
	out, err := w.run(tr)
	tr.end()

	it.wall = time.Since(t0)
	it.cpu = cpuTime() - cpu0
	it.rssPeak = sampler.stop()
	rt1 := readRuntimeMetrics()
	it.out = out
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil || !traced {
		return it, nil, err
	}

	it.layer = out.layers
	if it.layer == nil {
		it.layer = map[string]float64{}
	}
	self, err := profileLayers(prof.Bytes())
	if err != nil {
		return it, nil, err
	}
	for l, d := range self {
		it.layer[l+".self_ms"] = ms(d)
	}
	total, _ := spanTotals(tr.spans, tr.run)
	it.layer["trace.next_wait_ms"] = ms(total["trace.Next"])
	it.layer["trace.next_wait_share"] = total["trace.Next"].Seconds() / it.wall.Seconds()
	it.layer["core.boot_ms"] = ms(total["core.NewDefault"] + total["core.LaunchStream"] + total["core.LaunchInit"])
	it.layer["core.step_ms"] = ms(total["core.Replay.Step"])
	it.layer["persist.recover_ms"] = ms(total["core.Crash"] + total["core.Recover"])
	for _, b := range benchSpans {
		it.layer["bench."+b+"_s"] = total["bench."+b].Seconds()
	}
	it.layer["runtime.gc_cpu_ms"] = (rt1.gcCPU - rt0.gcCPU) * 1e3
	it.layer["runtime.alloc_mb"] = float64(rt1.allocs-rt0.allocs) / (1 << 20)
	return it, prof.Bytes(), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndValues reduces untraced iterations to the end-to-end metrics,
// each the median over iterations.
func endToEndValues(iters []iteration, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":       setupS,
		"wall_s":        median(iters, func(it iteration) float64 { return it.wall.Seconds() }),
		"cpu_s":         median(iters, func(it iteration) float64 { return it.cpu.Seconds() }),
		"records_per_s": median(iters, func(it iteration) float64 { return it.out.records / it.wall.Seconds() }),
		"ops_per_s":     median(iters, func(it iteration) float64 { return it.out.ops / it.wall.Seconds() }),
		"rss_peak_mb":   median(iters, func(it iteration) float64 { return float64(it.rssPeak) / (1 << 20) }),
	}
}

// median returns the median of f over xs (0 for none).
func median[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// printWalls prints every untraced iteration's wall time in run order, so
// the spread behind the wall_s median shows.
func printWalls(iters []iteration) {
	fmt.Printf("  wall per iteration (s, n=%d):", len(iters))
	for _, it := range iters {
		fmt.Printf(" %.4f", it.wall.Seconds())
	}
	fmt.Println()
}

// printSpans prints, per span name, the total and self time of traced
// iteration run's spans.
func printSpans(spans []span, run int) {
	total, self := spanTotals(spans, run)
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  spans of the last traced iteration (total ms / self ms):\n")
	for _, n := range names {
		fmt.Printf("    %-24s %12.3f %12.3f\n", n, ms(total[n]), ms(self[n]))
	}
}

func printMetrics(defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Printf("  %-26s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// printDecodeVerdict states which stage bounds the streamed replay. Decode
// runs concurrently with replay, so throughput is max(decode, replay): the
// time replay spends blocked in Next is the most a faster decoder can save,
// and buffer stalls (the decoder waiting for replay to free a buffer) show
// decode keeping ahead.
func printDecodeVerdict(m map[string]metricValue) {
	share := m["trace.next_wait_share"].Value
	verdict := "replay-bound: decode keeps ahead of replay"
	if m["trace.reorder_stall_ms"].Value > m["trace.buffer_stall_ms"].Value {
		verdict = "decode-bound: replay waits on decode"
	}
	fmt.Printf("  decode vs replay: next_wait %.1f ms = %.2f%% of wall; reorder stalls %.1f ms, buffer stalls %.1f ms over %.0f chunks; %s; a faster decoder saves at most %.2f%% of wall\n",
		m["trace.next_wait_ms"].Value, 100*share, m["trace.reorder_stall_ms"].Value,
		m["trace.buffer_stall_ms"].Value, m["trace.chunks"].Value, verdict, 100*share)
}

// writeTrace writes the traced run's spans, each with its self time, as
// JSON, and its last CPU profile, readable with `go tool pprof`.
func writeTrace(dir, name string, seed uint64, spans []span, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	type spanOut struct {
		span
		Self int64 `json:"self_ns"`
	}
	out := make([]spanOut, len(spans))
	for i, st := range selfTimes(spans) {
		out[i] = spanOut{spans[i], int64(st)}
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", js, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	fmt.Printf("  spans: %s.spans.json, CPU profile: %s.cpu.pprof\n", base, base)
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct {
	gcCPU  float64 // seconds
	allocs uint64  // bytes
}

func readRuntimeMetrics() runtimeSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[1].Value.Uint64()
	}
	return r
}

// rssSampler polls the process's resident set size until stopped.
type rssSampler struct {
	quit chan struct{}
	done chan uint64
}

const rssInterval = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		peak := rss()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				if r := rss(); r > peak {
					peak = r
				}
				s.done <- peak
				return
			case <-t.C:
				if r := rss(); r > peak {
					peak = r
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in bytes.
func (s *rssSampler) stop() uint64 {
	close(s.quit)
	return <-s.done
}

// rss reads the resident set size from /proc/self/statm (0 if unreadable).
func rss() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	var pages uint64
	if _, err := fmt.Sscan(f[1], &pages); err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
