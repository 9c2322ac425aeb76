package kindle_test

import (
	"testing"

	"kindle/internal/bench"
)

// BenchmarkLongHorizon measures the checkpoint/crash/recovery lifecycle
// workload (bench.RunLongHorizon defaults: six work rounds separated by
// 50 ms idle windows, a 5 ms checkpoint interval and a mid-run power
// failure). The workload is ~99% idle simulated time, so its host cost is
// dominated by how the run loop crosses dead time between timer
// boundaries.
func BenchmarkLongHorizon(b *testing.B) {
	cfg := bench.LongHorizonConfig{CrashAtPhase: 3}
	for i := 0; i < b.N; i++ {
		res, err := bench.RunLongHorizon(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Crashes != 1 || res.Checkpoints == 0 {
			b.Fatalf("lifecycle ran %d crashes, %d checkpoints", res.Crashes, res.Checkpoints)
		}
	}
}
