package kindle_test

// Traffic smoke test (`make trafficsmoke`, part of `make check`): run the
// real kindle binary twice on the same seeded multi-tenant traffic spec,
// requiring the two stats dumps to be byte-identical. This pins the
// traffic engine's determinism contract end to end: same seed + spec ⇒ the
// same arrivals, the same schedule, the same dump.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestTrafficSmoke(t *testing.T) {
	bin := kindleBinary(t)
	dir := t.TempDir()

	const spec = "tenants=6;ops=400;mix=scan:0.2,point:0.7,write:0.1;footprint=128KiB"
	runs := []string{"a", "b"}
	dumps := make([][]byte, len(runs))
	for i, name := range runs {
		statsOut := filepath.Join(dir, "stats."+name)
		if out, err := exec.Command(bin,
			"-traffic", spec,
			"-seed", "7",
			"-small",
			"-persist", "rebuild",
			"-interval", "300us",
			"-stats-out", statsOut,
		).CombinedOutput(); err != nil {
			t.Fatalf("kindle (%s): %v\n%s", name, err, out)
		}
		data, err := os.ReadFile(statsOut)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s run wrote an empty stats file", name)
		}
		if !bytes.Contains(data, []byte("traffic.t0005.lat::samples")) {
			t.Fatalf("%s stats file lacks per-tenant latency histograms", name)
		}
		dumps[i] = data
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		al := bytes.Split(dumps[0], []byte("\n"))
		bl := bytes.Split(dumps[1], []byte("\n"))
		for j := 0; j < len(al) && j < len(bl); j++ {
			if !bytes.Equal(al[j], bl[j]) {
				t.Fatalf("stats dumps diverge at line %d:\n a: %s\n b: %s", j+1, al[j], bl[j])
			}
		}
		t.Fatalf("stats dumps differ in length: %d vs %d lines", len(al), len(bl))
	}
}
