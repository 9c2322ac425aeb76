package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"kindle/internal/bench"
	"kindle/internal/core"
	"kindle/internal/persist"
	"kindle/internal/sim"
	"kindle/internal/trace"
	"kindle/internal/traffic"
	"kindle/internal/workloads"
)

// A workload generates its inputs from a seed in set-up, then simulates
// them once per timed iteration. The simulator only ever sees the
// generated image or spec.
type workload interface {
	// setup generates the inputs for seed, replacing any earlier ones.
	setup(seed uint64) error
	// run simulates the inputs once. tr is nil in untraced runs.
	run(tr *tracer) (outcome, error)
}

// outcome is what one iteration did and produced.
type outcome struct {
	records float64 // memory-access records simulated
	ops     float64 // units of work the user asked for
	// digest is the SHA-256 of the stats dump (the suite's: of its CSV), the
	// fingerprint of every simulated number the iteration produced.
	digest string
	// layers holds the per-layer counter metrics; traced runs only.
	layers map[string]float64
}

var workloadNames = []string{"ycsb-stream", "pagerank-persist", "traffic-32t", "paper-suite"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ycsb-stream":
		return &ycsbStream{}, nil
	case "pagerank-persist":
		return &pagerankPersist{}, nil
	case "traffic-32t":
		return &traffic32t{}, nil
	case "paper-suite":
		return &paperSuite{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func statsDigest(st *sim.Stats) string {
	sum := sha256.Sum256([]byte(st.Dump("")))
	return hex.EncodeToString(sum[:])
}

// layerCounters reads the per-layer counter metrics off a machine's stats.
// Every iteration boots a fresh machine, so final values are the run's
// deltas.
func layerCounters(st *sim.Stats) map[string]float64 {
	get := func(name string) float64 { return float64(st.Get(name)) }
	ratio := func(hit, miss string) float64 {
		h, m := get(hit), get(miss)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	return map[string]float64{
		"tlb.l1_hit_ratio":    ratio("tlb.l1.hit", "tlb.l1.miss"),
		"tlb.l2_hit_ratio":    ratio("tlb.l2.hit", "tlb.l2.miss"),
		"tlb.l1.miss":         get("tlb.l1.miss"),
		"pt.walk":             get("pt.walk"),
		"pt.install":          get("pt.install"),
		"cache.l1_hit_ratio":  ratio("cache.l1.hit", "cache.l1.miss"),
		"cache.llc.miss":      get("cache.llc.miss"),
		"cache.writeback":     get("cache.writeback"),
		"nvm.write":           get("nvm.write"),
		"nvm.write_stall":     get("nvm.write_stall"),
		"dram.row_hit_ratio":  ratio("dram.row_hit", "dram.row_miss"),
		"os.context_switch":   get("os.context_switch"),
		"os.fault_demand":     get("os.fault_demand"),
		"persist.checkpoints": get("persist.checkpoints"),
		"traffic.ops":         get("traffic.ops"),
	}
}

// boot is core.NewDefault, the Table I machine, under a span.
func boot(tr *tracer) *core.Framework {
	tr.begin("core.NewDefault")
	defer tr.end()
	return core.NewDefault()
}

// replayRest replays the rest of the trace. Traced runs make the same
// Step(1<<16) calls Replay.Run makes, so each can carry a span.
func replayRest(tr *tracer, rep *core.Replay) error {
	if tr == nil {
		return rep.Run()
	}
	for {
		tr.begin("core.Replay.Step")
		done, err := rep.Step(1 << 16)
		tr.end()
		if err != nil || done {
			return err
		}
	}
}

// ycsbStream replays paper-scale Ycsb_mem from a v2 image through the
// streamed decoder, as `kindle -image` does: the per-access engine (decode,
// translate, TLB, caches, memory) does nearly all the work.
type ycsbStream struct{ image []byte }

func (w *ycsbStream) setup(seed uint64) error {
	w.image = nil
	var buf bytes.Buffer
	var sw *trace.StreamWriter
	cfg := workloads.DefaultYCSB()
	cfg.Seed = seed
	cfg.Sink = func(benchmark string, areas []trace.Area) (trace.RecordSink, error) {
		var err error
		sw, err = trace.NewStreamWriter(&buf, benchmark, areas, trace.StreamOptions{})
		return sw, err
	}
	if _, err := workloads.YCSB(cfg); err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("encoding v2 image: %w", err)
	}
	w.image = buf.Bytes()
	return nil
}

func (w *ycsbStream) run(tr *tracer) (outcome, error) {
	f := boot(tr)
	src, err := trace.OpenStream(bytes.NewReader(w.image))
	if err != nil {
		return outcome{}, err
	}
	defer src.Close()
	var rs trace.RecordSource = src
	if tr != nil {
		rs = tracedSource{src, tr}
	}
	tr.begin("core.LaunchStream")
	_, rep, err := f.LaunchStream(rs)
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	if err := replayRest(tr, rep); err != nil {
		return outcome{}, err
	}
	n := float64(rep.Consumed())
	out := outcome{records: n, ops: n, digest: statsDigest(f.M.Stats)}
	if tr != nil {
		out.layers = layerCounters(f.M.Stats)
		if ds, ok := src.(trace.DecodeStatsSource); ok {
			st := ds.DecodeStats()
			out.layers["trace.chunks"] = float64(st.Chunks)
			out.layers["trace.reorder_stall_ms"] = float64(st.ReorderStallNs) / 1e6
			out.layers["trace.buffer_stall_ms"] = float64(st.BufferStallNs) / 1e6
		}
	}
	return out, nil
}

// pagerankPersist is the paper's process-persistence scenario (`kindle
// -persist persistent -interval 1ms -crash-at 0.5`) on a materialized
// paper-scale Gapbs_pr image: irregular graph reads beside NVM writes,
// checkpoints, a crash and a recovery, and no trace decode.
type pagerankPersist struct{ img *trace.Image }

const checkpointInterval = time.Millisecond

func (w *pagerankPersist) setup(seed uint64) error {
	w.img = nil
	cfg := workloads.DefaultPageRank()
	cfg.Seed = seed
	img, err := workloads.PageRank(cfg)
	if err != nil {
		return err
	}
	// Validate memoizes its record scan, which LaunchInit would otherwise
	// pay on the first iteration only.
	if err := img.Validate(); err != nil {
		return err
	}
	w.img = img
	return nil
}

func (w *pagerankPersist) run(tr *tracer) (outcome, error) {
	f := boot(tr)
	tr.begin("core.EnablePersistence")
	mgr, err := f.EnablePersistence(persist.Persistent, checkpointInterval)
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	tr.begin("core.LaunchInit")
	_, rep, err := f.LaunchInit(w.img)
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	mgr.Start()

	tr.begin("core.Replay.Step")
	_, err = rep.Step(rep.Total() / 2)
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	mgr.Checkpoint()
	tr.begin("core.Crash")
	f.Crash()
	tr.end()
	tr.begin("core.Recover")
	procs, err := f.Recover(checkpointInterval)
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	if len(procs) != 1 {
		return outcome{}, fmt.Errorf("recovered %d processes, want 1", len(procs))
	}
	tr.begin("core.Rebind")
	err = rep.Rebind(procs[0])
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	f.K.Switch(procs[0])
	f.Manager().Start()
	if err := replayRest(tr, rep); err != nil {
		return outcome{}, err
	}
	n := float64(rep.Consumed())
	out := outcome{records: n, ops: n, digest: statsDigest(f.M.Stats)}
	if tr != nil {
		out.layers = layerCounters(f.M.Stats)
	}
	return out, nil
}

// traffic32t drives 32 tenants of open-loop Poisson traffic through the
// gemOS scheduler: the OS side (context switches, faults across 32 address
// spaces, idle stepping) with no trace to decode.
type traffic32t struct{ spec traffic.Spec }

const trafficSpec = "tenants=32;ops=40000;footprint=1MiB;rate=40000"

func (w *traffic32t) setup(seed uint64) error {
	spec, err := traffic.ParseSpec(trafficSpec)
	if err != nil {
		return err
	}
	spec.Seed = seed
	if err := spec.Validate(); err != nil {
		return err
	}
	w.spec = spec
	return nil
}

func (w *traffic32t) run(tr *tracer) (outcome, error) {
	f := boot(tr)
	tr.begin("core.RunTraffic")
	res, err := f.RunTraffic(w.spec, nil)
	tr.end()
	if err != nil {
		return outcome{}, err
	}
	if want := uint64(w.spec.Tenants * w.spec.Ops); res.Ops != want {
		return outcome{}, fmt.Errorf("traffic completed %d ops, want %d", res.Ops, want)
	}
	st := f.M.Stats
	out := outcome{
		records: float64(st.Get("cpu.load") + st.Get("cpu.store")),
		ops:     float64(res.Ops),
		digest:  statsDigest(st),
	}
	if tr != nil {
		out.layers = layerCounters(st)
	}
	return out, nil
}

// paperSuite is `kindle-bench -experiment all -scale 0.0625 -fork` on the
// paper's fixed inputs: the only workload that runs hscc, ssp, snapshot
// forks, the Fig 4 micro-benchmarks and trace generation.
type paperSuite struct{ opt bench.Options }

const suiteScale = 1.0 / 16

// suiteExperiments is the number of tasks bench.RunAll runs.
const suiteExperiments = 10

func (w *paperSuite) setup(uint64) error {
	w.opt = bench.Options{Scale: suiteScale, WarmFork: true}
	return nil
}

func (w *paperSuite) run(tr *tracer) (outcome, error) {
	opt := w.opt
	opt.Progress = bench.NewTracker()
	var res *bench.Results
	var err error
	if tr == nil {
		res, err = bench.RunAll(opt, nil)
	} else {
		res, err = suiteTraced(tr, opt)
	}
	if err != nil {
		return outcome{}, err
	}
	if err := checkShapes(res); err != nil {
		return outcome{}, err
	}
	sum := sha256.Sum256([]byte(res.RenderCSV()))
	return outcome{
		records: float64(opt.Progress.Snapshot().RecordsReplayed),
		ops:     suiteExperiments,
		digest:  hex.EncodeToString(sum[:]),
	}, nil
}

// checkShapes runs CheckShape on every suite experiment but Table II: its
// read mixes only settle on traces of 1.25M records or more (scale 1/8, as
// TestTableIIShape documents), and at suite scale G500_sssp reads 63.6%
// against 68±2. The suite digest still pins Table II's numbers exactly.
func checkShapes(res *bench.Results) error {
	for _, e := range res.All() {
		if e == bench.Experiment(res.TableII) {
			continue
		}
		if err := e.CheckShape(); err != nil {
			return err
		}
	}
	return nil
}

// suiteTraced runs RunAll's experiments one after another, each under a
// span. Each experiment keeps its own warm-fork snapshot cache, where
// RunAll shares one across experiments; results are identical either way.
func suiteTraced(tr *tracer, opt bench.Options) (*bench.Results, error) {
	res := &bench.Results{}
	steps := []struct {
		span string
		run  func() error
	}{
		{"bench.tableI", func() error { res.TableI = bench.TableI(); return nil }},
		{"bench.tableII", func() (err error) { res.TableII, err = bench.TableII(opt); return }},
		{"bench.fig4a", func() (err error) { res.Fig4a, err = bench.Fig4a(opt); return }},
		{"bench.fig4b", func() (err error) { res.Fig4b, err = bench.Fig4b(opt); return }},
		{"bench.tableIII", func() (err error) { res.TableIII, err = bench.TableIII(opt); return }},
		{"bench.tableIV", func() (err error) { res.TableIV, err = bench.TableIV(opt); return }},
		{"bench.fig5", func() (err error) { res.Fig5, err = bench.Fig5(opt); return }},
		{"bench.hscc", func() (err error) {
			res.TableV, res.Fig6, res.TableVI, err = bench.HSCCAll(opt)
			return
		}},
		{"bench.intervals", func() (err error) { res.Intervals, err = bench.Intervals(opt); return }},
		{"bench.imagesizes", func() (err error) { res.ImageSizes, err = bench.ImageSizes(opt); return }},
	}
	for _, s := range steps {
		tr.begin(s.span)
		err := s.run()
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
