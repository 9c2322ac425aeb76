package kindle_test

// Golden stats digests: the SHA-256 of the full stats dump of small seeded
// runs, pinned so that `go test ./...` fails on any change that moves a
// simulated number. Host-side optimisations (tag-store layout, scheduler
// data structures, hoisted arithmetic, the run loop's idle skipping) must
// leave every digest untouched; a change that is meant to alter simulated
// behaviour updates them and says why.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kindle/internal/bench"
	"kindle/internal/core"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/persist"
	"kindle/internal/sim"
	"kindle/internal/traffic"
	"kindle/internal/workloads"
)

const goldenPersistDigest = "2b92aa5297e46327dafed3185503662fe4a267296fa3f4ba4fd0ce2fe6b7faeb"

// goldenRun pins a scenario that idles: its stats-dump digest and its
// final clock, which the dump does not carry. Timers fire on cycle-group
// boundaries during idle time, so both move if the run loop fires an
// event at the wrong boundary.
type goldenRun struct {
	digest string
	clock  sim.Cycles
}

var (
	// Replay bursts of a 30k-op YCSB image with rebuild checkpoints every
	// 300 us, each burst followed by 2 ms of idle at a 5 us grain.
	goldenIdleReplay = goldenRun{"90e6403c18639e515d56ca63f2362c2dfe88b178f99aa79baea163d730d17a8b", 20_359_370}
	// quickLongHorizon: four work+idle rounds with a crash after the
	// second.
	goldenLongHorizon = goldenRun{"ea2a650cb7ae866020d96e7cffc7094bacf8658dc8100918894547ac8994a393", 48_378_295}
	// The KINDLE_NIGHTLY runs.
	goldenNightlyLongHorizon = goldenRun{"771a3bb7290b59d75f9fb09826d8b6516b870ea6bce0294946dfe21ff8bd839b", 19_201_947_795}
	goldenNightlyTraffic     = goldenRun{"d7b25b98a758088ac0ef7fefd54379c1abfa5fbc139542d78cd7cd340b0a2ffb", 31_790_273}
)

func dumpDigest(st *sim.Stats) string {
	return bytesDigest([]byte(st.Dump("")))
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden fails t unless the run matches want. On a mismatch it saves
// the dump under KINDLE_NIGHTLY_DIR (when set) as name, for CI artifact
// upload.
func checkGolden(t *testing.T, name string, want goldenRun, dump []byte, clock sim.Cycles) {
	t.Helper()
	got := bytesDigest(dump)
	if got == want.digest && clock == want.clock {
		return
	}
	t.Errorf("%s: digest %s at clock %d, want %s at clock %d (artifact: %q)",
		name, got, clock, want.digest, want.clock, saveNightlyDump(t, name+".stats", dump))
}

// TestGoldenTrafficDigest runs seeded tenant fleets through gemOS on the
// small machine: scheduler, faults, TLB, page walks and the cache
// hierarchy, with no trace to decode.
func TestGoldenTrafficDigest(t *testing.T) {
	for _, tc := range []struct {
		name, spec, digest string
	}{{
		// Eight open-loop Zipfian tenants.
		name:   "open8",
		spec:   "tenants=8;ops=4000;footprint=4MiB",
		digest: "a20a56b171edd15927024c68123ba48ba0fc787e6362a3a7113cd7948ea5918d",
	}, {
		// 80 closed-loop tenants (a ready set wider than one word) with
		// uniform keys. Scans run up to the whole area, so about half of
		// them wrap, and think times are long enough that every tenant is
		// sometimes blocked at once.
		name:   "closed80",
		spec:   "tenants=80;ops=60;loop=closed;keys=uniform;rate=5000;sizes=uniform:64-32KiB;footprint=32KiB;mix=scan:0.1,point:0.5,write:0.4",
		digest: "e3033ffd1a0a405bcec1e9a6a2e106350b522e3d40b3d70afc9784acb987fdb3",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := traffic.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = 1
			f := core.NewSmall()
			res, err := f.RunTraffic(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(spec.Tenants * spec.Ops); res.Ops != want {
				t.Fatalf("completed %d ops, want %d", res.Ops, want)
			}
			if f.M.Stats.Get("cache.writeback") == 0 {
				t.Fatal("no dirty write-backs; the run no longer exercises LLC eviction")
			}
			if got := dumpDigest(f.M.Stats); got != tc.digest {
				t.Fatalf("traffic stats digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestGoldenPersistDigest replays a small PageRank image under process
// persistence: periodic checkpoints, a crash halfway, recovery, rebind
// and the rest of the replay. The graph outgrows the LLC, so dirty lines
// are evicted to memory as well as written back by clwb.
func TestGoldenPersistDigest(t *testing.T) {
	const interval = 100 * time.Microsecond
	cfg := workloads.SmallPageRank()
	cfg.Vertices = 1 << 16
	cfg.Ops = 400_000
	img, err := workloads.PageRank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := core.NewSmall()
	mgr, err := f.EnablePersistence(persist.Persistent, interval)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	if _, err := rep.Step(rep.Total() / 2); err != nil {
		t.Fatal(err)
	}
	mgr.Checkpoint()
	f.Crash()
	procs, err := f.Recover(interval)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 {
		t.Fatalf("recovered %d processes, want 1", len(procs))
	}
	if err := rep.Rebind(procs[0]); err != nil {
		t.Fatal(err)
	}
	f.K.Switch(procs[0])
	f.Manager().Start()
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	if n := f.M.Stats.Get("persist.checkpoints"); n < 2 {
		t.Fatalf("only %d checkpoints; the run no longer exercises periodic persistence", n)
	}
	if f.M.Stats.Get("cache.writeback") == 0 {
		t.Fatal("no dirty write-backs; the run no longer exercises LLC eviction")
	}
	if got := dumpDigest(f.M.Stats); got != goldenPersistDigest {
		t.Fatalf("persist stats digest %s, want %s", got, goldenPersistDigest)
	}
}

// TestGoldenIdleReplayDigest replays a YCSB image under rebuild
// persistence with long idle stretches between replay steps: checkpoints,
// scheduler ticks and NVM drains keep firing while no instructions are in
// flight. The fast paths are a host-side shortcut, so both settings must
// match the same digest.
func TestGoldenIdleReplayDigest(t *testing.T) {
	wcfg := workloads.SmallYCSB()
	wcfg.Ops = 30_000
	img, err := workloads.YCSB(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, slow := range []bool{false, true} {
		name := "fastpaths"
		if slow {
			name = "slowpaths"
		}
		t.Run(name, func(t *testing.T) {
			mcfg := machine.TestConfig()
			mcfg.DisableFastPaths = slow
			f := core.New(mcfg)
			if _, err := f.EnablePersistence(persist.Rebuild, 300*time.Microsecond); err != nil {
				t.Fatal(err)
			}
			_, rep, err := f.LaunchInit(img)
			if err != nil {
				t.Fatal(err)
			}
			f.Manager().Start()
			for {
				done, err := rep.Step(10_000)
				if err != nil {
					t.Fatal(err)
				}
				f.RunIdle(2*time.Millisecond, 5*time.Microsecond)
				if done {
					break
				}
			}
			if n := f.M.Stats.Get("persist.checkpoints"); n < 10 {
				t.Fatalf("only %d checkpoints; the idle stretches no longer exercise the timer", n)
			}
			var buf bytes.Buffer
			if err := f.M.Stats.WriteStatsFile(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "idle-replay-"+name, goldenIdleReplay, buf.Bytes(), f.M.Clock.Now())
		})
	}
}

// quickLongHorizon keeps bench.RunLongHorizon's lifecycle cheap: fewer,
// shorter phases at a coarser grain, with a crash in the middle.
func quickLongHorizon() bench.LongHorizonConfig {
	return bench.LongHorizonConfig{
		Phases:       4,
		OpsPerPhase:  16,
		IdlePerPhase: 4 * time.Millisecond,
		IdleTick:     2 * time.Microsecond,
		Interval:     500 * time.Microsecond,
		CrashAtPhase: 2,
	}
}

// TestGoldenLongHorizonDigest pins the checkpoint/crash/recovery lifecycle
// with long idle windows.
func TestGoldenLongHorizonDigest(t *testing.T) {
	res, err := bench.RunLongHorizon(quickLongHorizon())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	// 4 phases x 4ms idle at a 500us interval: the timer must have fired
	// roughly once per interval.
	if res.Checkpoints < 10 {
		t.Fatalf("only %d checkpoints started; lifecycle not exercising the timer", res.Checkpoints)
	}
	checkGolden(t, "longhorizon-quick", goldenLongHorizon, res.Dump, res.Cycles)
}

// The nightly suite (`make nightly`, .github/workflows/nightly.yml) runs
// golden scenarios at a scale too slow for every push: a long-horizon
// checkpoint/crash/recovery lifecycle with dozens of idle-heavy phases,
// and a large multi-tenant traffic run. Gated on KINDLE_NIGHTLY=1 so
// `go test ./...` stays fast. On a mismatch the dumps are written into
// KINDLE_NIGHTLY_DIR (when set) for CI artifact upload.

func nightlyEnabled(t *testing.T) {
	if os.Getenv("KINDLE_NIGHTLY") != "1" {
		t.Skip("nightly suite disabled; set KINDLE_NIGHTLY=1")
	}
}

// saveNightlyDump writes a mismatch artifact when KINDLE_NIGHTLY_DIR is
// set, returning the path it wrote (or "" when saving is off).
func saveNightlyDump(t *testing.T, name string, data []byte) string {
	dir := os.Getenv("KINDLE_NIGHTLY_DIR")
	if dir == "" {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("nightly: cannot create artifact dir: %v", err)
		return ""
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Logf("nightly: cannot write artifact: %v", err)
		return ""
	}
	return path
}

// TestNightlyLongHorizonDigest is the long-horizon lifecycle scaled up:
// 64 phases with 100 ms idle windows — 6.4 s of simulated time, ~20 G
// cycles, thousands of checkpoints — crashing and recovering halfway.
func TestNightlyLongHorizonDigest(t *testing.T) {
	nightlyEnabled(t)
	res, err := bench.RunLongHorizon(bench.LongHorizonConfig{
		Phases:       64,
		OpsPerPhase:  64,
		IdlePerPhase: 100 * time.Millisecond,
		IdleTick:     1 * time.Microsecond,
		Interval:     2 * time.Millisecond,
		CrashAtPhase: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	if res.Checkpoints < 100 {
		t.Fatalf("only %d checkpoints started; nightly lifecycle not exercising the timer", res.Checkpoints)
	}
	checkGolden(t, "longhorizon-nightly", goldenNightlyLongHorizon, res.Dump, res.Cycles)
}

// TestNightlyTrafficDigest runs the traffic engine at a scale the push
// gate cannot afford — 32 tenants, 2000 ops each, contending for one small
// machine — and requires a repeat run's dump to be byte-identical.
func TestNightlyTrafficDigest(t *testing.T) {
	nightlyEnabled(t)
	spec := traffic.DefaultSpec()
	spec.Tenants = 32
	spec.Ops = 2000
	spec.Seed = 42
	run := func() ([]byte, sim.Cycles) {
		m := machine.New(machine.TestConfig())
		eng, err := traffic.New(gemos.Boot(m), spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return []byte(m.Stats.Dump("")), m.Clock.Now()
	}
	first, clock := run()
	repeat, _ := run()
	if !bytes.Equal(first, repeat) {
		a := saveNightlyDump(t, "traffic-first.stats", first)
		b := saveNightlyDump(t, "traffic-repeat.stats", repeat)
		t.Fatalf("repeat traffic run diverged (artifacts: %q, %q)", a, b)
	}
	checkGolden(t, "traffic-nightly", goldenNightlyTraffic, first, clock)
}
