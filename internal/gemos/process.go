package gemos

import (
	"fmt"

	"kindle/internal/cpu"
	"kindle/internal/pt"
	"kindle/internal/sim"
)

// ProcState is a process lifecycle state.
type ProcState uint8

// Process states.
const (
	ProcReady ProcState = iota
	ProcRunning
	ProcZombie
	// ProcBlocked marks a process waiting for work (an empty tenant queue
	// in the traffic engine, a sleeping service). Writing it to State
	// blocks; the scheduler skips blocked processes. Only Scheduler.Wake
	// unblocks a scheduled process: a direct write back to ProcReady
	// leaves it invisible to Resched.
	ProcBlocked
)

func (s ProcState) String() string {
	switch s {
	case ProcReady:
		return "ready"
	case ProcRunning:
		return "running"
	case ProcBlocked:
		return "blocked"
	default:
		return "zombie"
	}
}

// Acct accumulates per-process resource accounting, the OS-side view the
// multi-tenant experiments aggregate per tenant: demand faults serviced,
// pages currently resident, pages migrated on the process's behalf (HSCC),
// cycles the core spent dispatched to the process and how many times it was
// switched onto the core. The kernel maintains every field; readers take a
// copy via Process.Accounting.
type Acct struct {
	Faults        uint64
	ResidentPages uint64
	Migrations    uint64
	CPUCycles     sim.Cycles
	Switches      uint64
}

// Default virtual layout constants for user processes.
const (
	// MmapBase is where anonymous mappings are placed by default.
	MmapBase = uint64(0x4000_0000)
	// StackTop is the top of the main stack area.
	StackTop = uint64(0x7FFF_FFF0_0000)
	// StackSize is the default stack reservation.
	StackSize = uint64(8 << 20)
)

// Process is one gemOS execution context.
type Process struct {
	PID   int
	Name  string
	State ProcState

	// Regs is the saved architectural state while not running; the live
	// state is in the core when this process is current.
	Regs cpu.Registers

	AS    AddressSpace
	Table *pt.Table

	mmapCursor uint64

	// Slot is the saved-state slot index assigned by the persistence
	// layer, or -1 when the process is not persisted.
	Slot int

	// Recovered marks a context recreated by crash recovery.
	Recovered bool

	// acct is the kernel-maintained accounting; dispatchedAt is the clock
	// value when the process was last switched onto the core (valid while
	// it is current).
	acct         Acct
	dispatchedAt sim.Cycles

	// schedSlot is the process's index in its Scheduler's queue, kept
	// by Scheduler.rebuild so Wake finds its ready bit in O(1).
	schedSlot int
}

// runnable reports whether the scheduler may pick p.
func (p *Process) runnable() bool { return p.State != ProcZombie && p.State != ProcBlocked }

// Accounting returns a copy of the process's resource accounting. While the
// process is running, CPUCycles excludes the current dispatch period; call
// Kernel.AccountNow first to fold it in.
func (p *Process) Accounting() Acct { return p.acct }

// AccountMigrations charges n page migrations to the process. The HSCC
// prototype calls it from its migration activity.
func (p *Process) AccountMigrations(n uint64) { p.acct.Migrations += n }

// MmapCursor returns the next-allocation hint (persisted in the saved
// state so recovered processes keep allocating above old mappings).
func (p *Process) MmapCursor() uint64 { return p.mmapCursor }

// SetMmapCursor restores the allocation hint during recovery.
func (p *Process) SetMmapCursor(v uint64) {
	if v >= MmapBase {
		p.mmapCursor = v
	}
}

func (p *Process) String() string {
	return fmt.Sprintf("pid %d (%s) %s, %d VMAs, %d pages mapped",
		p.PID, p.Name, p.State, p.AS.Count(), p.Table.Mapped())
}
