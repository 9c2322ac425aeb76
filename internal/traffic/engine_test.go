package traffic

import (
	"bytes"
	"strings"
	"testing"

	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/sim"
)

// runDump executes spec on a fresh small machine and returns the result
// plus the full stats dump.
func runDump(t *testing.T, spec Spec) (*Result, string) {
	t.Helper()
	m := machine.New(machine.TestConfig())
	eng, err := New(gemos.Boot(m), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, m.Stats.Dump("")
}

func quickSpec() Spec {
	spec := DefaultSpec()
	spec.Tenants = 4
	spec.Ops = 150
	spec.Footprint = 64 << 10
	return spec
}

func TestEngineSeedDeterminism(t *testing.T) {
	spec := quickSpec()
	_, a := runDump(t, spec)
	_, b := runDump(t, spec)
	if a != b {
		t.Fatal("same seed + spec produced different stats dumps")
	}
	spec.Seed = 99
	_, c := runDump(t, spec)
	if a == c {
		t.Fatal("different seeds produced identical dumps; the seed is not reaching the samplers")
	}
}

func TestEngineCompletesBudgetAndAccounts(t *testing.T) {
	spec := quickSpec()
	res, dump := runDump(t, spec)
	if res.Ops != uint64(spec.Tenants*spec.Ops) {
		t.Fatalf("completed %d ops, want %d", res.Ops, spec.Tenants*spec.Ops)
	}
	if len(res.Tenants) != spec.Tenants {
		t.Fatalf("%d tenant results, want %d", len(res.Tenants), spec.Tenants)
	}
	var switches uint64
	for _, tr := range res.Tenants {
		if tr.Ops != uint64(spec.Ops) {
			t.Fatalf("tenant %d completed %d ops, want %d", tr.ID, tr.Ops, spec.Ops)
		}
		if tr.Acct.CPUCycles == 0 {
			t.Fatalf("tenant %d ran %d ops with zero CPU cycles", tr.ID, tr.Ops)
		}
		if tr.Acct.Faults == 0 || tr.Acct.ResidentPages == 0 {
			t.Fatalf("tenant %d demand-paged nothing: %+v", tr.ID, tr.Acct)
		}
		if tr.Acct.ResidentPages > tr.Acct.Faults {
			t.Fatalf("tenant %d resident pages %d exceed faults %d", tr.ID, tr.Acct.ResidentPages, tr.Acct.Faults)
		}
		switches += tr.Acct.Switches
	}
	if switches < uint64(spec.Tenants) {
		t.Fatalf("only %d context switches across %d tenants; no time slicing happened", switches, spec.Tenants)
	}
	if res.P50 > res.P95 || res.P95 > res.P99 {
		t.Fatalf("quantiles out of order: p50=%d p95=%d p99=%d", res.P50, res.P95, res.P99)
	}
	if res.Jain <= 0 || res.Jain > 1 {
		t.Fatalf("Jain index %v outside (0, 1]", res.Jain)
	}
	// The published summary must land in the dump, per tenant.
	for i := 0; i < spec.Tenants; i++ {
		for _, stat := range []string{".lat::samples", ".ops", ".cpu_cycles", ".resident_pages"} {
			if !strings.Contains(dump, TenantPrefix(i)+stat) {
				t.Fatalf("dump lacks %s%s", TenantPrefix(i), stat)
			}
		}
	}
}

func TestEngineZeroOps(t *testing.T) {
	spec := quickSpec()
	spec.Ops = 0
	res, _ := runDump(t, spec)
	if res.Ops != 0 {
		t.Fatalf("zero-budget run completed %d ops", res.Ops)
	}
	if res.P50 != 0 || res.P99 != 0 || res.Jain != 0 {
		t.Fatalf("zero-budget run reports non-empty summary: %+v", res)
	}
}

func TestEngineLatencyIncludesQueueing(t *testing.T) {
	// One tenant, fixed arrivals far faster than the machine can serve:
	// open-loop backlog must push observed latency far above per-op
	// service time, while the closed-loop variant of the same spec stays
	// near service time.
	base := quickSpec()
	base.Tenants = 1
	base.Ops = 300
	base.Arrival = ArrivalFixed
	base.Rate = 50_000_000 // one op per 60 cycles: unserviceable
	base.Loop = LoopOpen
	open, _ := runDump(t, base)
	base.Loop = LoopClosed
	closed, _ := runDump(t, base)
	if open.MeanLat < 4*closed.MeanLat {
		t.Fatalf("open-loop backlog mean %v not clearly above closed-loop %v; queueing delay is not being measured",
			open.MeanLat, closed.MeanLat)
	}
}

func TestEngineTenantHistogramCollisionPanics(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := gemos.Boot(m)
	// A counter squatting on tenant 0's histogram name must panic at
	// engine construction, not silently alias the stat.
	m.Stats.Inc(TenantLatStat(0))
	defer func() {
		if recover() == nil {
			t.Fatal("New did not panic on a counter/histogram name collision")
		}
	}()
	New(k, quickSpec()) //nolint:errcheck // panics before returning
}

func TestEngineEmptyTenantHistogramExtrema(t *testing.T) {
	// A registered-but-empty per-tenant histogram must dump zero extrema
	// and survive a stats merge without poisoning the merged min (the
	// empty-side extrema rule in sim.MergeFrom).
	m := machine.New(machine.TestConfig())
	k := gemos.Boot(m)
	spec := quickSpec()
	spec.Ops = 0
	eng, err := New(k, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	h := m.Stats.Hist(TenantLatStat(0))
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty tenant histogram has samples=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}

	other := sim.NewStats()
	other.Hist(TenantLatStat(0)).Observe(100)
	other.MergeFrom(m.Stats)
	merged := other.Hist(TenantLatStat(0))
	if merged.Count() != 1 || merged.Min() != 100 || merged.Max() != 100 {
		t.Fatalf("merging an empty tenant histogram perturbed extrema: samples=%d min=%d max=%d",
			merged.Count(), merged.Min(), merged.Max())
	}
}

func TestEngineDumpSectionStable(t *testing.T) {
	// The traffic.* dump section alone (what bench.Traffic compares across
	// parallel and sequential grid runs) is deterministic and lists every
	// tenant in index order.
	spec := quickSpec()
	run := func() string {
		m := machine.New(machine.TestConfig())
		eng, err := New(gemos.Boot(m), spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Stats.Dump("traffic.")
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("traffic.* dump section not stable across runs")
	}
	var prev string
	for i := 0; i < spec.Tenants; i++ {
		pfx := TenantPrefix(i)
		if !strings.Contains(a, pfx+".ops") {
			t.Fatalf("dump section lacks %s.ops", pfx)
		}
		if prev != "" && strings.Index(a, pfx+".") < strings.Index(a, prev+".") {
			t.Fatalf("tenant sections out of order: %s before %s", pfx, prev)
		}
		prev = pfx
	}
	if bytes.Contains([]byte(a), []byte("os.")) {
		t.Fatal("prefix filter leaked non-traffic stats into the section")
	}
}
