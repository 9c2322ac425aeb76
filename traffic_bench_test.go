package kindle_test

import (
	"fmt"
	"testing"

	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/traffic"
)

// BenchmarkTrafficEngine times traffic.Engine.Run for 8000 open-loop
// operations spread over 8 or 32 tenants on the small machine (boot and
// tenant spawning are untimed) and reports host throughput as ops/s. The
// 32-tenant figure is the bench report's traffic_ops_per_sec.
func BenchmarkTrafficEngine(b *testing.B) {
	for _, tenants := range []int{8, 32} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), trafficEngineBench(tenants))
	}
}

func trafficEngineBench(tenants int) func(*testing.B) {
	return func(b *testing.B) {
		spec := traffic.DefaultSpec()
		spec.Tenants = tenants
		spec.Ops = 8000 / tenants
		spec.Footprint = 1 << 20
		spec.Rate = 40_000
		ops := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := traffic.New(gemos.Boot(machine.New(machine.TestConfig())), spec)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := eng.Run()
			if err != nil {
				b.Fatal(err)
			}
			ops += int(res.Ops)
		}
		b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
	}
}
