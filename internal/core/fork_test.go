package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"kindle/internal/machine"
	"kindle/internal/persist"
	"kindle/internal/trace"
)

// forkWarmup is the warm-prefix length for the fork identity tests: a
// multiple of the replay tick grain (32), mid-trace for the 20k-record
// small image.
const forkWarmup = 8000

// coldForkRun replays the image end-to-end on a fresh framework — the
// reference trajectory the forked runs must reproduce byte-for-byte. The
// run is split at the warmup boundary exactly like the forked run (same
// Step call sequence), so any dump difference is the fork's fault, not
// stepping granularity.
func coldForkRun(t *testing.T, cfg machine.Config, scheme *persist.Scheme) (string, uint64) {
	t.Helper()
	f := New(cfg)
	if scheme != nil {
		mgr, err := f.EnablePersistence(*scheme, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
	}
	_, rep, err := f.LaunchInit(smallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	return f.M.Stats.Dump(""), uint64(f.M.Clock.Now())
}

// warmForkRun replays the warm prefix once, snapshots, and finishes the
// trace on a resumed child. It returns the child's dump/clock plus the
// parent's after the parent also finishes its own run.
func warmForkRun(t *testing.T, cfg machine.Config, scheme *persist.Scheme) (child, parent string, childClock uint64) {
	t.Helper()
	img := smallImage(t)
	f := New(cfg)
	if scheme != nil {
		mgr, err := f.EnablePersistence(*scheme, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
	}
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot(rep)

	cf, crep, err := RunFromSnapshot(snap, traceSource(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if crep.Consumed() != forkWarmup {
		t.Fatalf("resumed replay at %d records, want %d", crep.Consumed(), forkWarmup)
	}
	if err := crep.Run(); err != nil {
		t.Fatal(err)
	}

	// The parent keeps running after the snapshot; COW must leave its
	// trajectory untouched.
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	return cf.M.Stats.Dump(""), f.M.Stats.Dump(""), uint64(cf.M.Clock.Now())
}

func traceSource(t *testing.T, img *trace.Image) trace.RecordSource {
	t.Helper()
	return trace.NewImageSource(img)
}

func TestForkIdentityPlainReplay(t *testing.T) {
	cfg := machine.TestConfig()
	wantDump, wantClock := coldForkRun(t, cfg, nil)
	child, parent, childClock := warmForkRun(t, cfg, nil)
	if childClock != wantClock {
		t.Fatalf("forked clock %d != cold %d", childClock, wantClock)
	}
	if child != wantDump {
		t.Fatalf("forked dump differs from cold boot:\n%s", firstDiff(child, wantDump))
	}
	if parent != wantDump {
		t.Fatalf("parent dump diverged after snapshot:\n%s", firstDiff(parent, wantDump))
	}
}

func TestForkIdentityWithPersistence(t *testing.T) {
	for _, scheme := range []persist.Scheme{persist.Rebuild, persist.Persistent} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := machine.TestConfig()
			wantDump, wantClock := coldForkRun(t, cfg, &scheme)
			child, parent, childClock := warmForkRun(t, cfg, &scheme)
			if childClock != wantClock {
				t.Fatalf("forked clock %d != cold %d", childClock, wantClock)
			}
			if child != wantDump {
				t.Fatalf("forked dump differs from cold boot:\n%s", firstDiff(child, wantDump))
			}
			if parent != wantDump {
				t.Fatalf("parent dump diverged after snapshot:\n%s", firstDiff(parent, wantDump))
			}
		})
	}
}

// TestForkSiblingsIndependent resumes several children from one snapshot
// concurrently; under -race this pins that siblings share no mutable
// state, and their dumps must all match the cold reference.
func TestForkSiblingsIndependent(t *testing.T) {
	cfg := machine.TestConfig()
	scheme := persist.Rebuild
	wantDump, _ := coldForkRun(t, cfg, &scheme)

	img := smallImage(t)
	f := New(cfg)
	mgr, err := f.EnablePersistence(scheme, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot(rep)

	const siblings = 4
	dumps := make([]string, siblings)
	var wg sync.WaitGroup
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cf, crep, err := RunFromSnapshot(snap, traceSource(t, img))
			if err != nil {
				t.Error(err)
				return
			}
			if err := crep.Run(); err != nil {
				t.Error(err)
				return
			}
			dumps[i] = cf.M.Stats.Dump("")
		}(i)
	}
	// The parent races ahead at the same time — COW isolation both ways.
	if err := rep.Run(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, d := range dumps {
		if d != wantDump {
			t.Fatalf("sibling %d dump differs from cold boot:\n%s", i, firstDiff(d, wantDump))
		}
	}
	if got := f.M.Stats.Dump(""); got != wantDump {
		t.Fatalf("parent dump diverged:\n%s", firstDiff(got, wantDump))
	}
}

// TestSnapshotSaveLoadRoundTrip serializes a snapshot to bytes and resumes
// from the decoded copy — the CLI's -snapshot-out/-snapshot-in path.
func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	cfg := machine.TestConfig()
	scheme := persist.Rebuild
	wantDump, wantClock := coldForkRun(t, cfg, &scheme)

	img := smallImage(t)
	f := New(cfg)
	mgr, err := f.EnablePersistence(scheme, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Snapshot(rep).Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cf, crep, err := RunFromSnapshot(loaded, traceSource(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if err := crep.Run(); err != nil {
		t.Fatal(err)
	}
	if got := uint64(cf.M.Clock.Now()); got != wantClock {
		t.Fatalf("resumed clock %d != cold %d", got, wantClock)
	}
	if got := cf.M.Stats.Dump(""); got != wantDump {
		t.Fatalf("resumed dump differs from cold boot:\n%s", firstDiff(got, wantDump))
	}
}

// TestSnapshotFileHeader pins the snapshot file's magic/version header:
// Save writes it, LoadSnapshot accepts it, and a headerless file (the
// format before the header existed, a bare gob stream) or a file naming
// another version is refused with an error that names both versions.
func TestSnapshotFileHeader(t *testing.T) {
	f := New(machine.TestConfig())
	_, rep, err := f.LaunchInit(smallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Step(forkWarmup); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot(rep)
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	t.Run("round-trip", func(t *testing.T) {
		if !bytes.HasPrefix(saved, []byte("KINDLESNAP\x00\x00\x00\x01")) {
			t.Fatalf("file starts %q, want the magic and version 1", saved[:14])
		}
		loaded, err := LoadSnapshot(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.M.Now != snap.M.Now || loaded.Replay.Consumed != snap.Replay.Consumed {
			t.Fatalf("loaded clock %d at record %d, saved %d at %d",
				loaded.M.Now, loaded.Replay.Consumed, snap.M.Now, snap.Replay.Consumed)
		}
	})
	t.Run("headerless", func(t *testing.T) {
		var old bytes.Buffer
		if err := gob.NewEncoder(&old).Encode(snapshotFile{Snap: snap, Img: snap.M.BackingImage()}); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSnapshot(&old)
		if err == nil || !strings.Contains(err.Error(), "version 1 expected") || !strings.Contains(err.Error(), "no \"KINDLESNAP\" header") {
			t.Fatalf("headerless file: err = %v", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := bytes.Clone(saved)
		bad[len("KINDLESNAP")+3] = 7
		_, err := LoadSnapshot(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "version 1 expected, found version 7") {
			t.Fatalf("version 7 file: err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := LoadSnapshot(bytes.NewReader(saved[:5])); err == nil {
			t.Fatal("a 5-byte file loaded")
		}
	})
}

// TestForkThenCrashRecover crashes a forked machine and runs recovery on
// it: the crash's DRAM DropRange and the recovery's NVM reads all land on
// copy-on-write slabs shared with the still-running parent, which must
// stay byte-identical to a cold run throughout.
func TestForkThenCrashRecover(t *testing.T) {
	cfg := machine.TestConfig()
	img := smallImage(t)

	run := func(fork bool) (dump string, mapped int) {
		f := New(cfg)
		mgr, err := f.EnablePersistence(persist.Rebuild, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		_, rep, err := f.LaunchInit(img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rep.Step(forkWarmup); err != nil {
			t.Fatal(err)
		}
		var parent *Framework
		var parentRep *Replay
		if fork {
			snap := f.Snapshot(rep)
			parent, parentRep = f, rep
			f, rep, err = RunFromSnapshot(snap, traceSource(t, img))
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.Run(); err != nil {
			t.Fatal(err)
		}
		f.Manager().Checkpoint()
		f.Crash()
		procs, err := f.Recover(2 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) != 1 {
			t.Fatalf("recovered %d processes, want 1", len(procs))
		}
		if fork {
			// The parent keeps replaying across the child's crash; its
			// final state must not have been disturbed.
			if err := parentRep.Run(); err != nil {
				t.Fatal(err)
			}
			if got := uint64(parent.M.Clock.Now()); got == 0 {
				t.Fatal("parent clock lost")
			}
		}
		return f.M.Stats.Dump(""), procs[0].Table.Mapped()
	}

	coldDump, coldMapped := run(false)
	forkDump, forkMapped := run(true)
	if forkMapped != coldMapped {
		t.Fatalf("forked recovery mapped %d pages, cold %d", forkMapped, coldMapped)
	}
	if forkDump != coldDump {
		t.Fatalf("forked crash/recover dump differs:\n%s", firstDiff(forkDump, coldDump))
	}
}

// firstDiff returns the first differing line pair of two dumps, keeping
// failure output readable.
func firstDiff(got, want string) string {
	g := bytes.Split([]byte(got), []byte("\n"))
	w := bytes.Split([]byte(want), []byte("\n"))
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(g[i], w[i]) {
			return "got:  " + string(g[i]) + "\nwant: " + string(w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}
