// Package ssp prototypes Shadow Sub-Paging (Ni et al., MICRO'19) on
// Kindle, following the paper's §III-B implementation: gemOS allocates an
// additional physical page per virtual NVM page; the original and shadow
// page addresses plus the (commit, current) bitmaps live in a metadata
// area (the SSP cache) in NVM; the address-translation hardware — told the
// NVM virtual range and the SSP-cache base through MSRs — sets a bit in
// the TLB entry's `updated` bitmap on every NVM store; at each consistency
// interval the kernel instructs the hardware to push modified bitmaps to
// the SSP cache and then issues clwb for all data and metadata updates;
// an asynchronous thread periodically consolidates the page pairs of
// TLB-evicted entries.
package ssp

import (
	"fmt"
	"time"

	"kindle/internal/cpu"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/sim"
	"kindle/internal/tlb"
)

// metaEntrySize is one SSP-cache record: original PFN, shadow PFN, commit
// bitmap, current bitmap, flags — padded to a cache line so a metadata
// update is one line write + clwb.
const metaEntrySize = 64

// meta mirrors one SSP-cache record on the host side. Per sub-page line,
// two bitmaps select between the original and shadow frames (bit 0 =
// original, 1 = shadow): commit points at the durable version a
// post-crash reader would use, current points at the latest version. A
// line with current != commit has an uncommitted update routed to the
// current side; the interval-end flush makes it durable and copies
// current into commit atomically with the metadata write-back.
type meta struct {
	orig    uint64
	shadow  uint64
	commit  uint64 // durable-version selector per line
	current uint64 // latest-version selector per line
	evicted bool   // TLB entry evicted; consolidation candidate
	dead    bool   // unmapped; skipped by scans
	idx     int    // record index in the SSP cache region
}

// Config parameterizes the prototype.
type Config struct {
	// ConsistencyInterval is the FASE checkpoint period (Fig. 5 sweeps 1,
	// 5 and 10 ms).
	ConsistencyInterval sim.Cycles
	// ConsolidationInterval is the background merge thread period (fixed
	// to 1 ms in the paper's study).
	ConsolidationInterval sim.Cycles
}

// DefaultConfig returns the paper's defaults (5 ms consistency, 1 ms
// consolidation).
func DefaultConfig() Config {
	return Config{
		ConsistencyInterval:   sim.FromDuration(5 * time.Millisecond),
		ConsolidationInterval: sim.FromDuration(time.Millisecond),
	}
}

// Controller is the SSP prototype attached to a kernel.
type Controller struct {
	m   *machine.Machine
	k   *gemos.Kernel
	cfg Config

	cacheBase mem.PhysAddr // SSP cache region (NVM)
	cacheCap  int

	entries map[uint64]*meta // vpn -> record
	ordered []*meta          // deterministic iteration order for the scans
	nextIdx int

	enabled    bool
	rangeBase  uint64
	rangeEnd   uint64
	intervalEv *sim.Event
	consolEv   *sim.Event

	// Per-access counters (TLB fill, store routing, metadata write-back),
	// resolved once at attach.
	tlbFills     *sim.Counter
	linesDirtied *sim.Counter
	metaWrites   *sim.Counter
	evictWBs     *sim.Counter
	routedWrites *sim.Counter
}

// Attach builds the prototype over k. It reuses the kernel's reserved NVM
// area for the SSP cache (the persistence manager and the prototypes are
// separate studies and do not share a machine).
func Attach(k *gemos.Kernel, cfg Config) (*Controller, error) {
	base, size := k.PersistArea()
	if size < 1*mem.MiB {
		return nil, fmt.Errorf("ssp: reserved NVM area too small (%d)", size)
	}
	c := &Controller{
		m:         k.M,
		k:         k,
		cfg:       cfg,
		cacheBase: base,
		cacheCap:  int(size / metaEntrySize),
		entries:   make(map[uint64]*meta),

		tlbFills:     k.M.Stats.Counter("ssp.tlb_fill"),
		linesDirtied: k.M.Stats.Counter("ssp.line_dirtied"),
		metaWrites:   k.M.Stats.Counter("ssp.meta_write"),
		evictWBs:     k.M.Stats.Counter("ssp.tlb_evict_writeback"),
		routedWrites: k.M.Stats.Counter("ssp.data_routed_write"),
	}
	k.Meta = c
	k.M.Core.SetHooks(c)
	k.M.TLB.SetEvictHook(c.onTLBEvict)
	k.M.Core.WriteMSR(cpu.MSRSSPCacheBase, uint64(base))
	return c, nil
}

// LogVMAChange implements gemos.MetaLogger (unused by SSP).
func (c *Controller) LogVMAChange(p *gemos.Process) {}

// LogMapping implements gemos.MetaLogger: on every NVM page mapping the
// page-allocation routine allocates the additional physical page and
// records the pair in the SSP cache, as in the paper's gemOS change.
func (c *Controller) LogMapping(p *gemos.Process, vpn, pfn uint64, mapped bool) {
	if !mapped {
		if mt, ok := c.entries[vpn]; ok {
			c.k.Alloc.FreeFrame(mt.shadow)
			delete(c.entries, vpn)
			mt.dead = true
		}
		return
	}
	shadow, err := c.k.Alloc.AllocFrame(mem.NVM)
	if err != nil {
		// Out of NVM: run without a shadow (consistency not guaranteed
		// for this page); the paper's allocator would fail the mmap.
		c.m.Stats.Inc("ssp.shadow_alloc_fail")
		return
	}
	mt := &meta{orig: pfn, shadow: shadow, idx: c.nextIdx % c.cacheCap}
	c.nextIdx++
	c.entries[vpn] = mt
	c.ordered = append(c.ordered, mt)
	c.writeMeta(mt)
	c.m.Stats.Inc("ssp.pair_alloc")
}

// writeMeta stores a record into the SSP cache (timed line write + clwb).
func (c *Controller) writeMeta(mt *meta) {
	ea := c.cacheBase + mem.PhysAddr(mt.idx*metaEntrySize)
	c.m.StoreU64(ea, mt.orig)
	c.m.StoreU64(ea+8, mt.shadow)
	c.m.StoreU64(ea+16, mt.commit)
	c.m.StoreU64(ea+24, mt.current)
	flags := uint64(0)
	if mt.evicted {
		flags = 1
	}
	c.m.StoreU64(ea+32, flags)
	c.m.AccessTimed(ea, true)
	c.m.Core.Clwb(ea)
	c.metaWrites.Inc()
}

// Enable turns the custom hardware on for the given NVM virtual range —
// the checkpoint_start call of the FASE programming model. The range is
// communicated to hardware through MSRs.
func (c *Controller) Enable(rangeBase, rangeEnd uint64) {
	c.rangeBase, c.rangeEnd = rangeBase, rangeEnd
	core := c.m.Core
	core.WriteMSR(cpu.MSRSSPRangeBase, rangeBase)
	core.WriteMSR(cpu.MSRSSPRangeEnd, rangeEnd)
	core.WriteMSR(cpu.MSRSSPEnable, 1)
	c.enabled = true
	c.scheduleInterval()
	c.scheduleConsolidation()
	c.m.Stats.Inc("ssp.enable")
}

// Disable is checkpoint_end for the whole FASE: a final interval flush,
// then hardware off.
func (c *Controller) Disable() {
	if !c.enabled {
		return
	}
	c.IntervalEnd()
	c.enabled = false
	c.m.Core.WriteMSR(cpu.MSRSSPEnable, 0)
	if c.intervalEv != nil {
		c.m.Events.Cancel(c.intervalEv)
	}
	if c.consolEv != nil {
		c.m.Events.Cancel(c.consolEv)
	}
}

func (c *Controller) scheduleInterval() {
	c.intervalEv = c.m.Events.Schedule(c.m.Clock.Now()+c.cfg.ConsistencyInterval, "ssp.interval", func(sim.Cycles) {
		if !c.enabled {
			return
		}
		c.IntervalEnd()
		c.scheduleInterval()
	})
}

func (c *Controller) scheduleConsolidation() {
	c.consolEv = c.m.Events.Schedule(c.m.Clock.Now()+c.cfg.ConsolidationInterval, "ssp.consolidate", func(sim.Cycles) {
		if !c.enabled {
			return
		}
		c.Consolidate()
		c.scheduleConsolidation()
	})
}

// inRange reports whether va is inside the MSR-communicated NVM range.
func (c *Controller) inRange(va uint64) bool {
	return c.enabled && va >= c.rangeBase && va < c.rangeEnd
}

// OnTranslate implements cpu.Hooks: the extended translation hardware
// fills the SSP fields on TLB fill (a memory request to the SSP cache) and
// sets the updated-bitmap bit on NVM stores in range.
func (c *Controller) OnTranslate(e *tlb.Entry, va uint64, write bool) {
	if !e.NVM || !c.inRange(va) {
		return
	}
	if e.SSPValid && !write {
		// A load through filled fields touches no SSP state.
		return
	}
	vpn := va / mem.PageSize
	mt, ok := c.entries[vpn]
	if !ok {
		return
	}
	if !e.SSPValid {
		// TLB fill of the supplementary fields: read the SSP cache.
		ea := c.cacheBase + mem.PhysAddr(mt.idx*metaEntrySize)
		c.m.AccessTimed(ea, false)
		e.SSPAlt = mt.shadow
		e.SSPCurrent = mt.current
		e.SSPUpdated = 0
		e.SSPValid = true
		mt.evicted = false
		c.tlbFills.Inc()
	}
	if write {
		bit := tlb.PageOffsetLineBit(va)
		if e.SSPUpdated&(1<<bit) == 0 {
			e.SSPUpdated |= 1 << bit
			c.linesDirtied.Inc()
		}
		// First write to the line since its last commit creates the new
		// version on the opposite copy: the remapping the SSP cache
		// controller performs at cache-line granularity.
		if mt.current&(1<<bit) == mt.commit&(1<<bit) {
			mt.current ^= 1 << bit
		}
	}
}

// OnLLCMiss implements cpu.Hooks (unused by SSP).
func (c *Controller) OnLLCMiss(e *tlb.Entry, va uint64, write bool) {}

// onTLBEvict pushes an evicted entry's bitmaps to the SSP cache and marks
// it evicted, the consolidation trigger. The current-selector state is
// already in the metadata (maintained at write time); commit stays
// untouched — durability only moves at interval ends.
func (c *Controller) onTLBEvict(e *tlb.Entry) {
	if !e.SSPValid {
		return
	}
	mt, ok := c.entries[e.VPN]
	if !ok {
		return
	}
	mt.evicted = true
	c.writeMeta(mt)
	c.evictWBs.Inc()
}

// IntervalEnd performs the checkpoint_end activities for one consistency
// interval: the kernel instructs the translation hardware to send all
// modified bitmaps in the TLB to the metadata region, then issues clwb for
// every dirtied data line and the metadata, and fences.
func (c *Controller) IntervalEnd() {
	m := c.m
	m.Core.EnterKernel()
	defer m.Core.ExitKernel()
	start := m.Clock.Now()

	// Hardware pushes every modified bitmap in the TLB to the metadata
	// region (the paper's "send all modified bitmap in TLBs").
	m.TLB.ForEach(func(e *tlb.Entry) {
		if !e.SSPValid || e.SSPUpdated == 0 {
			return
		}
		if mt, ok := c.entries[e.VPN]; ok {
			c.writeMeta(mt)
			e.SSPUpdated = 0
			e.SSPCurrent = mt.current
		}
	})
	// Then the kernel flushes every uncommitted data line (clwb) and
	// commits it, and the metadata write-back flips commit to current —
	// the atomic durability point of the interval.
	var flushed int
	for _, mt := range c.ordered {
		if mt.dead || mt.current == mt.commit {
			continue
		}
		pending := mt.current ^ mt.commit
		for bit := uint(0); bit < mem.LinesPerPage; bit++ {
			if pending&(1<<bit) == 0 {
				continue
			}
			pa := mem.FrameBase(mt.latestCopy(bit)) + mem.PhysAddr(bit*mem.LineSize)
			m.Core.Clwb(pa)
			m.Ctrl.Domain().CommitLine(pa)
			flushed++
		}
		mt.commit = mt.current
		c.writeMeta(mt)
	}
	m.Core.Fence()

	m.Stats.Inc("ssp.intervals")
	m.Stats.Add("ssp.lines_flushed", uint64(flushed))
	m.Stats.Add("ssp.interval_cycles", uint64(m.Clock.Now()-start))
}

// Consolidate is the background thread body: merge the page pairs of
// TLB-evicted entries by copying the lines whose latest version is in the
// shadow back into the original, then reset the bitmaps.
func (c *Controller) Consolidate() {
	m := c.m
	m.Core.EnterKernel()
	defer m.Core.ExitKernel()
	start := m.Clock.Now()

	merged := 0
	var line [mem.LineSize]byte
	for _, mt := range c.ordered {
		if mt.dead || !mt.evicted {
			continue
		}
		// Skip pages with uncommitted updates; only durably shadowed
		// lines may merge back into the original.
		if mt.current != mt.commit {
			continue
		}
		// Inspect the SSP cache entry (timed read).
		ea := c.cacheBase + mem.PhysAddr(mt.idx*metaEntrySize)
		m.AccessTimed(ea, false)
		if mt.commit != 0 {
			for bit := uint(0); bit < mem.LinesPerPage; bit++ {
				if mt.commit&(1<<bit) == 0 {
					continue
				}
				src := mem.FrameBase(mt.shadow) + mem.PhysAddr(bit*mem.LineSize)
				dst := mem.FrameBase(mt.orig) + mem.PhysAddr(bit*mem.LineSize)
				m.AccessTimed(src, false)
				m.AccessTimed(dst, true)
				m.Ctrl.Read(src, line[:])
				m.Ctrl.Write(dst, line[:])
				m.Core.Clwb(dst)
				m.Ctrl.Domain().CommitLine(dst)
			}
			mt.commit = 0
			mt.current = 0
		}
		mt.evicted = false
		c.writeMeta(mt)
		merged++
	}
	if merged > 0 {
		m.Core.Fence()
	}
	m.Stats.Add("ssp.pages_consolidated", uint64(merged))
	m.Stats.Inc("ssp.consolidation_runs")
	m.Stats.Add("ssp.consolidation_cycles", uint64(m.Clock.Now()-start))
}

// Pairs reports how many page pairs are live (tests/diagnostics).
func (c *Controller) Pairs() int { return len(c.entries) }
