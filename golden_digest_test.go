package kindle_test

// Golden stats digests: the SHA-256 of the full stats dump of two small
// seeded runs, pinned so that `go test ./...` fails on any change that
// moves a simulated number. Host-side optimisations (tag-store layout,
// scheduler data structures, hoisted arithmetic) must leave both digests
// untouched; a change that is meant to alter simulated behaviour updates
// them and says why.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"kindle/internal/core"
	"kindle/internal/persist"
	"kindle/internal/sim"
	"kindle/internal/traffic"
	"kindle/internal/workloads"
)

const (
	goldenTrafficDigest = "a20a56b171edd15927024c68123ba48ba0fc787e6362a3a7113cd7948ea5918d"
	goldenPersistDigest = "2b92aa5297e46327dafed3185503662fe4a267296fa3f4ba4fd0ce2fe6b7faeb"
)

func dumpDigest(st *sim.Stats) string {
	sum := sha256.Sum256([]byte(st.Dump("")))
	return hex.EncodeToString(sum[:])
}

// TestGoldenTrafficDigest runs eight open-loop tenants through gemOS on the
// small machine: scheduler, faults, TLB, page walks and the cache
// hierarchy, with no trace to decode.
func TestGoldenTrafficDigest(t *testing.T) {
	spec, err := traffic.ParseSpec("tenants=8;ops=4000;footprint=4MiB")
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
	if got := dumpDigest(f.M.Stats); got != goldenTrafficDigest {
		t.Fatalf("traffic stats digest %s, want %s", got, goldenTrafficDigest)
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
