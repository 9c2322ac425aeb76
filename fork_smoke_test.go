package kindle_test

// Snapshot/fork smoke test (`make forksmoke`, part of `make check`): build
// the real kindle binary, write a tiny v2 image, run it cold, run it again
// with -snapshot-out (freezing mid-replay, then finishing), and resume the
// snapshot twice with -snapshot-in. All four stats dumps must be
// byte-identical: the snapshotting run is unperturbed by the capture
// (copy-on-write), and each forked resume reproduces the cold trajectory
// exactly. This pins the snapshot contract end to end — flag parsing, gob
// save/load, frame-store image round-trip, event re-arming and decoder
// fast-forward.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"kindle/internal/trace"
	"kindle/internal/workloads"
)

func TestForkSmoke(t *testing.T) {
	bin := kindleBinary(t)
	dir := t.TempDir()

	cfg := workloads.SmallYCSB()
	cfg.Ops = 20_000
	img, err := workloads.YCSB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	image := filepath.Join(dir, "ycsb.ktrc")
	f, err := os.Create(image)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeV2(f, img, trace.StreamOptions{ChunkRecords: 1024}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	run := func(name string, args ...string) []byte {
		t.Helper()
		statsOut := filepath.Join(dir, "stats."+name)
		cmd := exec.Command(bin, append(args,
			"-image", image,
			"-persist", "rebuild",
			"-stats-out", statsOut)...)
		if name == "resume1" || name == "resume2" {
			// -snapshot-in restores the captured persistence state itself.
			cmd = exec.Command(bin, append(args,
				"-image", image,
				"-stats-out", statsOut)...)
		}
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("kindle (%s): %v\n%s", name, err, out)
		}
		data, err := os.ReadFile(statsOut)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s wrote an empty stats file", name)
		}
		return data
	}

	snap := filepath.Join(dir, "warm.snap")
	cold := run("cold")
	writer := run("writer", "-snapshot-out", snap, "-snapshot-at", "8000")
	resume1 := run("resume1", "-snapshot-in", snap)
	resume2 := run("resume2", "-snapshot-in", snap)

	if !bytes.Equal(cold, writer) {
		t.Fatalf("taking a snapshot perturbed the run:\n--- cold ---\n%s\n--- with -snapshot-out ---\n%s", cold, writer)
	}
	if !bytes.Equal(cold, resume1) {
		t.Fatalf("resumed run differs from cold run:\n--- cold ---\n%s\n--- resumed ---\n%s", cold, resume1)
	}
	if !bytes.Equal(resume1, resume2) {
		t.Fatal("two resumes of the same snapshot differ")
	}
}
