// Package machine composes the hardware half of Kindle — memory system,
// caches, TLBs, CPU core, event queue — into a single simulated machine
// with the paper's Table I configuration, and provides crash/reboot
// semantics.
package machine

import (
	"kindle/internal/cache"
	"kindle/internal/cpu"
	"kindle/internal/mem"
	"kindle/internal/obs"
	"kindle/internal/sim"
	"kindle/internal/tlb"
)

// Config selects the hardware parameters.
type Config struct {
	Layout mem.Layout
	DRAM   mem.DRAMTiming
	NVM    mem.NVMTiming
	Caches cache.HierConfig
	TLB1   tlb.Config
	TLB2   tlb.Config
	Seed   uint64

	// DisableFastPaths turns off the semantically invisible software fast
	// paths (the core's translation cache and single-line access shortcut,
	// the TLB MRU-way probe). Simulated output is bit-identical either way
	// — the switch exists for the equivalence tests and for isolating
	// fast-path bugs. The cache hierarchy has no such path to turn off:
	// its recency-ordered sets probe the MRU way first by construction.
	DisableFastPaths bool

	// Trace enables the structured event tracer. Zero-value Categories
	// leaves tracing off (Machine.Tracer stays nil; emission sites are
	// nil-safe and allocation-free in that state).
	Trace obs.Config
}

// DefaultConfig returns the paper's configuration (Table I): 3 GB DRAM +
// 2 GB NVM, DDR4-2400, PCM with 64/48 read/write buffers, 32 KB/512 KB/2 MB
// caches, 3 GHz in-order core.
func DefaultConfig() Config {
	return Config{
		Layout: mem.DefaultLayout(),
		DRAM:   mem.DDR4_2400(),
		NVM:    mem.PCM(),
		Caches: cache.DefaultHierConfig(),
		TLB1:   tlb.DefaultConfigL1(),
		TLB2:   tlb.DefaultConfigL2(),
		Seed:   1,
	}
}

// TestConfig returns a small-memory configuration for unit tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.Layout = mem.SmallLayout()
	return c
}

// Machine is one simulated computer.
type Machine struct {
	Cfg    Config
	Clock  *sim.Clock
	Stats  *sim.Stats
	Events *sim.Queue
	RNG    *sim.RNG

	Ctrl *mem.Controller
	Hier *cache.Hierarchy
	TLB  *tlb.TLB
	Core *cpu.Core

	// Tracer is non-nil only when Cfg.Trace.Categories selects at least
	// one category. OS-level components (gemos, persist) emit through it.
	Tracer *obs.Tracer

	booted int // reboot generation, incremented by Crash
}

// New builds and powers on a machine.
func New(cfg Config) *Machine {
	clock := sim.NewClock()
	stats := sim.NewStats()
	ctrl := mem.NewController(cfg.Layout, cfg.DRAM, cfg.NVM, clock, stats)
	hier := cache.NewHierarchy(cfg.Caches, ctrl, clock, stats)
	t := tlb.New(cfg.TLB1, cfg.TLB2, stats)
	core := cpu.New(clock, stats, t, hier, ctrl)
	if cfg.DisableFastPaths {
		core.SetFastPaths(false)
		t.SetMRUProbe(false)
	}
	m := &Machine{
		Cfg:    cfg,
		Clock:  clock,
		Stats:  stats,
		Events: sim.NewQueue(),
		RNG:    sim.NewRNG(cfg.Seed),
		Ctrl:   ctrl,
		Hier:   hier,
		TLB:    t,
		Core:   core,
	}
	// NVM write-buffer drains surface as "nvm.drain" events so the run
	// loop sees them as deadlines (RunUntil).
	ctrl.NVM().SetEvents(m.Events)
	if cfg.Trace.Categories != 0 {
		capacity := cfg.Trace.BufferCap
		if capacity <= 0 {
			capacity = obs.DefaultBufferCap
		}
		m.Tracer = obs.New(clock, capacity, cfg.Trace.Categories)
		ctrl.SetTracer(m.Tracer)
		hier.SetTracer(m.Tracer)
		core.SetTracer(m.Tracer)
	}
	return m
}

// AccessTimed satisfies pt.Memory: a timed access through the cache
// hierarchy; the clock advances.
func (m *Machine) AccessTimed(pa mem.PhysAddr, write bool) sim.Cycles {
	lat := m.Hier.Access(pa, write)
	m.Clock.Advance(lat)
	return lat
}

// LoadU64 satisfies pt.Memory (functional read).
func (m *Machine) LoadU64(pa mem.PhysAddr) uint64 { return m.Ctrl.ReadU64(pa) }

// StoreU64 satisfies pt.Memory (functional write).
func (m *Machine) StoreU64(pa mem.PhysAddr, v uint64) { m.Ctrl.WriteU64(pa, v) }

// CommitRange satisfies pt.Committer: make [pa, pa+size) durable.
func (m *Machine) CommitRange(pa mem.PhysAddr, size uint64) {
	m.Ctrl.Domain().CommitRange(pa, size)
}

// SetCommitHook installs (nil removes) an interceptor for NVM durability
// events on the persist domain. Fault-injection harnesses use it to crash
// the machine at commit-point granularity (see internal/fault).
func (m *Machine) SetCommitHook(h mem.CommitHook) { m.Ctrl.Domain().SetCommitHook(h) }

// Tick fires every event due at the current time. The OS run loop calls it
// between instructions/operations.
func (m *Machine) Tick() { m.Events.RunDue(m.Clock.Now()) }

// Crash models a power failure: caches, TLBs, core registers, DRAM and all
// non-durable NVM lines are lost; scheduled activities are forgotten. The
// clock keeps its value (downtime is not modeled). The reboot generation
// increments so software can detect the restart.
func (m *Machine) Crash() {
	m.Ctrl.Crash()
	m.Hier.Reset()
	m.Core.Reset()
	m.Events.Drain()
	m.booted++
	m.Stats.Inc("machine.crashes")
}

// BootGeneration returns how many times the machine has crashed/rebooted.
func (m *Machine) BootGeneration() int { return m.booted }

// ElapsedMillis is the simulated wall time in milliseconds.
func (m *Machine) ElapsedMillis() float64 { return m.Clock.Now().Millis() }
