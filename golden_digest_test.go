package kindle_test

// Golden stats digests: the SHA-256 of the full stats dump of small seeded
// runs, pinned so that `go test ./...` fails on any change that moves a
// simulated number. Host-side optimisations (tag-store layout, scheduler
// data structures, hoisted arithmetic) must leave every digest
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

const goldenPersistDigest = "2b92aa5297e46327dafed3185503662fe4a267296fa3f4ba4fd0ce2fe6b7faeb"

func dumpDigest(st *sim.Stats) string {
	sum := sha256.Sum256([]byte(st.Dump("")))
	return hex.EncodeToString(sum[:])
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
