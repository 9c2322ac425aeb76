package mem

import (
	"fmt"

	"kindle/internal/obs"
	"kindle/internal/sim"
)

// Controller is the memory-side port of the machine: it routes line-sized
// timing requests to the DRAM or NVM device model and byte-ranged functional
// requests to the persist-domain-wrapped backing store.
type Controller struct {
	Layout  Layout
	clock   *sim.Clock
	stats   *sim.Stats
	dram    *DRAMSim
	nvm     *NVMSim
	domain  *PersistDomain
	backing *Backing

	tr *obs.Tracer // nil when tracing is off

	// Per-kind device-latency distributions plus NVM write-buffer
	// occupancy, sampled on every timing access.
	dramReadLat  *sim.Histogram
	dramWriteLat *sim.Histogram
	nvmReadLat   *sim.Histogram
	nvmWriteLat  *sim.Histogram
	nvmWbufOcc   *sim.Histogram
}

// NewController assembles the full memory system for layout.
func NewController(layout Layout, dramT DRAMTiming, nvmT NVMTiming, clock *sim.Clock, stats *sim.Stats) *Controller {
	end := layout.DRAMBase + PhysAddr(layout.DRAMSize)
	if nvmEnd := layout.NVMBase + PhysAddr(layout.NVMSize); nvmEnd > end {
		end = nvmEnd
	}
	backing := NewBackingSized(end)
	return &Controller{
		Layout:       layout,
		clock:        clock,
		stats:        stats,
		dram:         NewDRAMSim(dramT, layout.DRAMBase, stats),
		nvm:          NewNVMSim(nvmT, clock, stats),
		domain:       NewPersistDomain(layout, backing, stats),
		backing:      backing,
		dramReadLat:  stats.Hist("mem.dram.read_lat"),
		dramWriteLat: stats.Hist("mem.dram.write_lat"),
		nvmReadLat:   stats.Hist("mem.nvm.read_lat"),
		nvmWriteLat:  stats.Hist("mem.nvm.write_lat"),
		nvmWbufOcc:   stats.Hist("mem.nvm.wbuf_occupancy"),
	}
}

// SetTracer installs the event tracer (nil disables).
func (c *Controller) SetTracer(tr *obs.Tracer) { c.tr = tr }

// AccessLine returns the device latency for one 64-byte line at pa. It is
// the timing path used by the cache hierarchy on misses and write-backs.
func (c *Controller) AccessLine(pa PhysAddr, write bool) sim.Cycles {
	switch c.Layout.KindOf(pa) {
	case DRAM:
		lat := c.dram.Access(pa, write)
		if write {
			c.dramWriteLat.ObserveCycles(lat)
		} else {
			c.dramReadLat.ObserveCycles(lat)
		}
		if c.tr.Enabled(obs.CatMem) {
			name := "dram.read"
			if write {
				name = "dram.write"
			}
			c.tr.Span(obs.CatMem, name, c.clock.Now(), lat, "pa", uint64(pa))
		}
		return lat
	case NVM:
		lat := c.nvm.Access(pa, write)
		if write {
			c.nvmWriteLat.ObserveCycles(lat)
		} else {
			c.nvmReadLat.ObserveCycles(lat)
		}
		c.nvmWbufOcc.Observe(uint64(c.nvm.buffered()))
		if c.tr.Enabled(obs.CatMem) {
			name := "nvm.read"
			if write {
				name = "nvm.write"
			}
			c.tr.Span(obs.CatMem, name, c.clock.Now(), lat, "pa", uint64(pa))
			c.tr.Counter(obs.CatMem, "nvm.wbuf", uint64(c.nvm.buffered()))
		}
		return lat
	default:
		panic(fmt.Sprintf("mem: access to unmapped physical address %#x", pa))
	}
}

// Read performs a functional read of cache-visible data.
func (c *Controller) Read(pa PhysAddr, dst []byte) { c.domain.Read(pa, dst) }

// Write performs a functional write with cache-visible semantics (volatile
// for NVM until committed).
func (c *Controller) Write(pa PhysAddr, src []byte) { c.domain.Write(pa, src) }

// ReadU64 reads a little-endian uint64 (cache-visible).
func (c *Controller) ReadU64(pa PhysAddr) uint64 { return c.domain.ReadU64(pa) }

// WriteU64 writes a little-endian uint64 (cache-visible).
func (c *Controller) WriteU64(pa PhysAddr, v uint64) { c.domain.WriteU64(pa, v) }

// Domain exposes the persist domain (commit, crash, pending queries).
func (c *Controller) Domain() *PersistDomain { return c.domain }

// NVM exposes the NVM device model (drain latency for fences).
func (c *Controller) NVM() *NVMSim { return c.nvm }

// DRAM exposes the DRAM device model.
func (c *Controller) DRAM() *DRAMSim { return c.dram }

// Backing exposes the raw functional store (page-copy helpers).
func (c *Controller) Backing() *Backing { return c.backing }

// Crash applies power-failure semantics to the whole memory system: DRAM
// and non-committed NVM lines are lost; device timing state resets.
func (c *Controller) Crash() {
	c.domain.Crash()
	c.dram.Reset()
	c.nvm.Reset()
}
