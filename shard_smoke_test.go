package kindle_test

// Sharded-replay smoke test (`make shardsmoke`, part of `make check`):
// build the real kindle binary, write a tiny v2 image, replay it with
// -shards 1 and -shards 4, and require the two stats dumps to be
// byte-identical. This pins the sharded determinism contract end to end —
// through flag parsing, the chunk index scan, the worker fan-out and the
// stats merge — in the same out-of-process style as the monitor smoke.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"kindle/internal/trace"
	"kindle/internal/workloads"
)

func TestShardSmoke(t *testing.T) {
	bin := kindleBinary(t)
	dir := t.TempDir()

	// A tiny image with deliberately small chunks, so even this trace
	// splits into enough segments for 4 shards to matter.
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

	dumps := map[int][]byte{}
	for _, shards := range []int{1, 4} {
		statsOut := filepath.Join(dir, "stats."+strconv.Itoa(shards))
		cmd := exec.Command(bin,
			"-image", image,
			"-shards", strconv.Itoa(shards),
			"-stats-out", statsOut)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("kindle -shards %d: %v\n%s", shards, err, out)
		}
		data, err := os.ReadFile(statsOut)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("-shards %d wrote an empty stats file", shards)
		}
		dumps[shards] = data
	}
	if !bytes.Equal(dumps[1], dumps[4]) {
		t.Fatalf("stats dumps differ between -shards 1 and -shards 4:\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s",
			dumps[1], dumps[4])
	}
}
