// Package gemos is Kindle's lightweight operating system — the counterpart
// of the paper's modified gemOS. It provides processes with virtual address
// spaces, an mmap/munmap/mremap/mprotect syscall surface extended with the
// MAP_NVM flag, demand paging backed by per-technology frame pools (with
// persisted NVM allocation metadata), and the hooks the persistence layer
// and the SSP/HSCC prototypes attach to.
package gemos

import (
	"errors"
	"fmt"

	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/obs"
	"kindle/internal/pt"
	"kindle/internal/sim"
)

// Reserved NVM carve-out, from the start of the NVM region:
//
//	+0              boot record (1 page)
//	+4 KiB          NVM frame-allocation bitmap (persisted)
//	+4 KiB + 1 MiB  persistence area (saved states, redo log, prototype
//	                metadata) — subdivided by internal/persist
const (
	bootRecordOff   = 0
	allocBitmapOff  = mem.PageSize
	allocBitmapSize = 1 * mem.MiB
	persistAreaOff  = allocBitmapOff + allocBitmapSize
)

// reservedNVMBytes sizes the carve-out: 64 MiB on full-size machines,
// a quarter of NVM on small test layouts.
func reservedNVMBytes(layout mem.Layout) uint64 {
	r := uint64(64 * mem.MiB)
	if q := layout.NVMSize / 4; q < r {
		r = q
	}
	return r
}

// Syscall cost constants: fixed kernel entry/exit and fault dispatch
// overheads in cycles (privilege switch, register save, dispatch), on top
// of whatever memory work the handler performs.
const (
	SyscallCost sim.Cycles = 300
	FaultCost   sim.Cycles = 600
	SwitchCost  sim.Cycles = 1000
)

// MetaLogger observes OS-level process metadata changes. The persistence
// layer implements it: VMA-layout changes and page-mapping changes are
// recorded in the NVM redo log / dirty sets between checkpoints.
type MetaLogger interface {
	// LogVMAChange records that p's VMA layout changed.
	LogVMAChange(p *Process)
	// LogMapping records that vpn→pfn was mapped (mapped=true) or
	// unmapped (mapped=false) in p's address space. Only NVM-backed pages
	// are reported (the paper's saved state tracks virtual-to-NVM-physical
	// mappings).
	LogMapping(p *Process, vpn, pfn uint64, mapped bool)
}

// Kernel is the gemOS kernel instance for one machine.
type Kernel struct {
	M     *machine.Machine
	Alloc *FrameAllocator

	procs   map[int]*Process
	nextPID int
	current *Process

	// PTKind selects where page-table pages are hosted: DRAM for the
	// rebuild scheme (default), NVM for the persistent scheme.
	PTKind mem.Kind

	// PTEHook, when non-nil, supplies a pt.WriteHook wrapping every
	// page-table store of a process (the persistent scheme's NVM
	// consistency mechanism).
	PTEHook func(p *Process) pt.WriteHook

	// Meta observes metadata changes (nil when persistence is off).
	Meta MetaLogger

	// OnSpawn is invoked after a process is created (persistence layer
	// assigns a saved-state slot).
	OnSpawn func(p *Process)

	// OnExit is invoked as a process is torn down (persistence layer
	// releases its saved-state slot).
	OnExit func(p *Process)

	faultLat *sim.Histogram // demand-fault service time (incl. FaultCost)

	// Per-event counters on the fault/switch/tick paths, resolved once.
	faultDemand     *sim.Counter
	contextSwitches *sim.Counter
	schedTicks      *sim.Counter
	kernelCycles    *sim.Counter
}

// Boot initializes the kernel on m.
func Boot(m *machine.Machine) *Kernel {
	layout := m.Cfg.Layout
	reserved := reservedNVMBytes(layout)
	bitmapBase := layout.NVMBase + mem.PhysAddr(allocBitmapOff)
	k := &Kernel{
		M:        m,
		Alloc:    NewFrameAllocator(m, layout, reserved, bitmapBase),
		procs:    make(map[int]*Process),
		PTKind:   mem.DRAM,
		faultLat: m.Stats.Hist("os.fault_lat"),

		faultDemand:     m.Stats.Counter("os.fault_demand"),
		contextSwitches: m.Stats.Counter("os.context_switch"),
		schedTicks:      m.Stats.Counter("os.sched_tick"),
		kernelCycles:    m.Stats.Counter("cpu.kernel_cycles"),
	}
	m.Core.SetFaultHandler(k)
	return k
}

// PersistArea returns the NVM region reserved for the persistence layer.
func (k *Kernel) PersistArea() (base mem.PhysAddr, size uint64) {
	layout := k.M.Cfg.Layout
	reserved := reservedNVMBytes(layout)
	return layout.NVMBase + mem.PhysAddr(persistAreaOff), reserved - persistAreaOff
}

// BootRecordAddr returns the NVM address of the boot record page.
func (k *Kernel) BootRecordAddr() mem.PhysAddr {
	return k.M.Cfg.Layout.NVMBase + mem.PhysAddr(bootRecordOff)
}

// Spawn creates a process with an empty address space (plus the default
// stack VMA in DRAM) and a fresh page table hosted per PTKind.
func (k *Kernel) Spawn(name string) (*Process, error) {
	k.M.Core.EnterKernel()
	defer k.M.Core.ExitKernel()

	k.nextPID++
	p := &Process{
		PID:        k.nextPID,
		Name:       name,
		State:      ProcReady,
		mmapCursor: MmapBase,
		Slot:       -1,
	}
	tbl, err := pt.New(k.M, k.Alloc, k.PTKind, k.M.Stats)
	if err != nil {
		return nil, fmt.Errorf("gemos: spawn %s: %w", name, err)
	}
	p.Table = tbl
	if k.PTEHook != nil {
		tbl.SetWriteHook(k.PTEHook(p))
	}
	stack := &VMA{Start: StackTop - StackSize, End: StackTop, Prot: ProtRead | ProtWrite, Kind: mem.DRAM, Name: "[stack]"}
	if err := p.AS.Insert(stack); err != nil {
		return nil, err
	}
	k.procs[p.PID] = p
	if k.Meta != nil {
		k.Meta.LogVMAChange(p)
	}
	if k.OnSpawn != nil {
		k.OnSpawn(p)
	}
	k.M.Stats.Inc("os.spawn")
	return p, nil
}

// Process looks up a PID.
func (k *Kernel) Process(pid int) *Process { return k.procs[pid] }

// Adopt registers a process reconstructed by crash recovery (the recovery
// procedure builds the context from the saved state itself rather than
// going through Spawn, preserving the original PID).
func (k *Kernel) Adopt(p *Process) {
	if p.PID >= k.nextPID {
		k.nextPID = p.PID
	}
	if p.mmapCursor == 0 {
		p.mmapCursor = MmapBase
	}
	k.procs[p.PID] = p
	k.M.Stats.Inc("os.adopt")
}

// Processes returns all live processes.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	return out
}

// Current returns the running process (nil at boot).
func (k *Kernel) Current() *Process { return k.current }

// Switch makes p the running process: saves the outgoing register file,
// restores p's, points the PTBR at p's table (flushing the TLB) and
// charges the context-switch cost. The outgoing process is credited the
// cycles it spent on the core; the switch cost itself is kernel time and
// belongs to neither side's CPU accounting.
func (k *Kernel) Switch(p *Process) {
	k.M.Core.EnterKernel()
	defer k.M.Core.ExitKernel()
	if k.current == p {
		return
	}
	if k.current != nil {
		k.current.Regs = k.M.Core.Regs
		k.current.acct.CPUCycles += k.M.Clock.Now() - k.current.dispatchedAt
		if k.current.State == ProcRunning {
			k.current.State = ProcReady
		}
	}
	k.M.Core.Regs = p.Regs
	k.M.Core.SetAddressSpace(p.Table)
	p.State = ProcRunning
	k.current = p
	k.M.Clock.Advance(SwitchCost)
	p.dispatchedAt = k.M.Clock.Now()
	p.acct.Switches++
	k.contextSwitches.Inc()
	k.kernelCycles.Add(uint64(SwitchCost))
}

// AccountNow folds the running process's current dispatch period into its
// CPUCycles accounting and restarts the period, so Accounting reads taken
// mid-dispatch are up to date.
func (k *Kernel) AccountNow() {
	if k.current == nil {
		return
	}
	now := k.M.Clock.Now()
	k.current.acct.CPUCycles += now - k.current.dispatchedAt
	k.current.dispatchedAt = now
}

// HandlePageFault implements cpu.FaultHandler: demand paging. The faulting
// VA must fall in a VMA of the current process; a frame of the VMA's kind
// is allocated and mapped.
func (k *Kernel) HandlePageFault(va uint64, write bool) (sim.Cycles, error) {
	p := k.current
	if p == nil {
		return FaultCost, errors.New("gemos: page fault with no current process")
	}
	k.M.Core.EnterKernel()
	defer k.M.Core.ExitKernel()
	start := k.M.Clock.Now()
	defer func() {
		// Handler memory work advanced the clock; FaultCost is charged by
		// the core after return, so fold it into the recorded service time.
		dur := k.M.Clock.Now() - start + FaultCost
		k.faultLat.ObserveCycles(dur)
		if k.M.Tracer.Enabled(obs.CatSyscall) {
			k.M.Tracer.Span(obs.CatSyscall, "page_fault", start, dur, "va", va)
		}
	}()

	v := p.AS.Find(va)
	if v == nil {
		k.M.Stats.Inc("os.fault_segv")
		return FaultCost, fmt.Errorf("gemos: segmentation fault at %#x (pid %d)", va, p.PID)
	}
	if write && v.Prot&ProtWrite == 0 {
		k.M.Stats.Inc("os.fault_prot")
		return FaultCost, fmt.Errorf("gemos: write to read-only area at %#x (pid %d)", va, p.PID)
	}
	pfn, err := k.Alloc.AllocFrame(v.Kind)
	if err != nil {
		return FaultCost, err
	}
	flags := uint64(pt.FlagUser)
	if v.Prot&ProtWrite != 0 {
		flags |= pt.FlagWritable
	}
	if v.Kind == mem.NVM {
		flags |= pt.FlagNVM
	}
	pageVA := va &^ (mem.PageSize - 1)
	if _, _, err := p.Table.Install(pageVA, pfn, flags); err != nil {
		k.Alloc.FreeFrame(pfn)
		return FaultCost, err
	}
	if k.Meta != nil && v.Kind == mem.NVM {
		k.Meta.LogMapping(p, pageVA/mem.PageSize, pfn, true)
	}
	k.faultDemand.Inc()
	p.acct.Faults++
	p.acct.ResidentPages++
	return FaultCost, nil
}

// Tick fires due machine events (checkpoint timers, migration intervals,
// consolidation threads). Call between user operations.
func (k *Kernel) Tick() { k.M.Tick() }

// Idle passes d cycles of simulated time with no process work, firing timer
// and device events along the way. Due events fire on boundaries tick
// cycles apart (0 = a single step to the end); the clock jumps straight
// between boundaries that have due events — see machine.RunUntil.
func (k *Kernel) Idle(d, tick sim.Cycles) {
	k.M.RunUntil(k.M.Clock.Now()+d, tick)
}

// Park idles for d cycles like Idle, but charges the dead time to no
// process: the current process's CPU accounting is settled up to the park
// and its dispatch period restarts afterwards. Load generators use it to
// wait for the next arrival without inflating the parked tenant's CPU
// time.
func (k *Kernel) Park(d, tick sim.Cycles) {
	k.AccountNow()
	k.Idle(d, tick)
	if k.current != nil {
		k.current.dispatchedAt = k.M.Clock.Now()
	}
}

// Exit tears down p: unmaps everything, frees frames and table pages.
func (k *Kernel) Exit(p *Process) {
	k.M.Core.EnterKernel()
	defer k.M.Core.ExitKernel()
	if k.current == p {
		p.acct.CPUCycles += k.M.Clock.Now() - p.dispatchedAt
	}
	if k.OnExit != nil {
		k.OnExit(p)
	}
	var leaves []uint64
	p.Table.ForEachMapped(func(va uint64, e pt.PTE) bool {
		leaves = append(leaves, e.PFN())
		return true
	})
	for _, pfn := range leaves {
		k.Alloc.FreeFrame(pfn)
	}
	p.Table.Destroy()
	p.acct.ResidentPages = 0
	p.State = ProcZombie
	delete(k.procs, p.PID)
	if k.current == p {
		k.current = nil
	}
	k.M.Stats.Inc("os.exit")
}
