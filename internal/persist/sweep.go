// Commit-point crash-injection sweep: run a deterministic workload once to
// learn the total number of NVM durability events E, then replay it from a
// fresh machine with an injected power failure at the k-th event, reboot,
// recover, and check the recovery invariants. Because the persist domain
// commits barrier lines in address order and the workload is seeded, the
// event stream is identical across replays, so "crash before event k" names
// one exact machine state for every k in [1, E].

package persist

import (
	"fmt"
	"time"

	"kindle/internal/fault"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/sim"
)

// SweepConfig describes one sweep workload. The zero value of any field is
// replaced by the default (48 ops, seed 1, 100 µs checkpoint interval,
// 20 µs between ops).
type SweepConfig struct {
	Scheme   Scheme
	Ops      int
	Seed     uint64
	Interval sim.Cycles
	OpGap    sim.Cycles

	// IdleTick is the cycle-group grain used to pass OpGap between ops
	// (0 = a single step, the historical behavior): due timers fire on
	// boundaries IdleTick cycles apart. The gap goes through Kernel.Idle.
	IdleTick sim.Cycles
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Ops == 0 {
		c.Ops = 48
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Interval == 0 {
		c.Interval = sim.FromDuration(100 * time.Microsecond)
	}
	if c.OpGap == 0 {
		c.OpGap = sim.FromDuration(20 * time.Microsecond)
	}
	return c
}

// SweepPlan is what the reference (observer) run learns about the workload's
// durability-event stream.
type SweepPlan struct {
	// Events is the total number of durability events E in the full run.
	Events uint64
	// AttachEvents is the event count when Attach returned. A crash at or
	// before this point may legitimately leave the NVM area header
	// non-durable, so a failed Reattach is a legal outcome there.
	AttachEvents uint64
	// SpawnEvents is the event count when the workload process's slot
	// became durable (Spawn + Switch returned). Past this point recovery
	// must always yield exactly one process.
	SpawnEvents uint64
	// Checkpoints is the number of checkpoints started during the full
	// run — the generation-monotonicity bound.
	Checkpoints uint64

	// prefix is the frozen pre-ops state (boot + attach + spawn + switch +
	// checkpoint timer armed) every crash point whose target lies past the
	// prefix forks from, instead of re-simulating it. Nil when the plan
	// predates capture (zero value) — crash points then cold-boot.
	prefix *sweepPrefix
}

// sweepPrefix is the shared warm prefix of a sweep: the machine snapshot
// plus the OS layers, and how many durability events producing it took.
type sweepPrefix struct {
	m      *machine.Snapshot
	kernel gemos.KernelState
	mgr    ManagerState
	events uint64
}

// resume forks a machine+kernel+manager off the prefix. Safe to call once
// per crash point, concurrently: the snapshot is only read.
func (sp *sweepPrefix) resume() (*machine.Machine, *gemos.Kernel, *Manager, error) {
	m, err := machine.NewFromSnapshot(sp.m)
	if err != nil {
		return nil, nil, nil, err
	}
	k, err := gemos.RestoreKernel(m, sp.kernel)
	if err != nil {
		return nil, nil, nil, err
	}
	mgr, err := RestoreManager(k, sp.mgr)
	if err != nil {
		return nil, nil, nil, err
	}
	extra := map[string]func(when sim.Cycles){"persist.checkpoint": mgr.RearmCheckpoint}
	if err := m.RearmEvents(sp.m, extra); err != nil {
		return nil, nil, nil, err
	}
	return m, k, mgr, nil
}

// sweepOps drives the deterministic mixed mmap/touch/munmap workload, one op
// at a time, stamping the op counter into the register file so torn recovery
// is detectable (a consistent snapshot always has GPR[0]*16 == RIP).
type sweepOps struct {
	k   *gemos.Kernel
	p   *gemos.Process
	rng *sim.RNG

	regions []uint64 // live NVM mmap bases (fixed 4-page regions)
	opCount int
}

const sweepRegionPages = 4

func (o *sweepOps) step() error {
	o.opCount++
	o.k.M.Core.Regs.GPR[0] = uint64(o.opCount)
	o.k.M.Core.Regs.RIP = uint64(o.opCount) * 16

	switch o.rng.Intn(4) {
	case 0, 1: // mmap + touch
		a, err := o.k.Mmap(o.p, 0, sweepRegionPages*mem.PageSize, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
		if err != nil {
			return err
		}
		o.regions = append(o.regions, a)
		for i := uint64(0); i < sweepRegionPages; i++ {
			if _, err := o.k.M.Core.Access(a+i*mem.PageSize, true, 8); err != nil {
				return err
			}
		}
	case 2: // munmap a region if any
		if len(o.regions) == 0 {
			return nil
		}
		idx := o.rng.Intn(len(o.regions))
		a := o.regions[idx]
		o.regions = append(o.regions[:idx], o.regions[idx+1:]...)
		return o.k.Munmap(o.p, a, sweepRegionPages*mem.PageSize)
	default: // touch a random live page
		if len(o.regions) == 0 {
			return nil
		}
		a := o.regions[o.rng.Intn(len(o.regions))]
		off := uint64(o.rng.Intn(sweepRegionPages)) * mem.PageSize
		if _, err := o.k.M.Core.Access(a+off, true, 8); err != nil {
			return err
		}
	}
	return nil
}

// sweepBoot runs the shared sweep prefix on m: boot the kernel, attach
// persistence, spawn and dispatch the workload process, start the
// checkpoint timer. When plan is non-nil the phase boundaries are recorded
// from the injector's event counter.
func sweepBoot(m *machine.Machine, cfg SweepConfig, inj *fault.Injector, plan *SweepPlan) (*gemos.Kernel, *gemos.Process, *Manager, error) {
	k := gemos.Boot(m)
	mgr, err := Attach(k, cfg.Scheme, cfg.Interval)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("attach: %w", err)
	}
	if plan != nil {
		plan.AttachEvents = inj.Events()
	}
	p, err := k.Spawn("sweep")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spawn: %w", err)
	}
	k.Switch(p)
	if plan != nil {
		plan.SpawnEvents = inj.Events()
	}
	mgr.Start()
	return k, p, mgr, nil
}

// sweepRun drives the deterministic op loop after the prefix — the part a
// forked crash point re-executes.
func sweepRun(k *gemos.Kernel, p *gemos.Process, cfg SweepConfig) error {
	o := &sweepOps{k: k, p: p, rng: sim.NewRNG(cfg.Seed)}
	for i := 0; i < cfg.Ops; i++ {
		if err := o.step(); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		// Let time pass so checkpoints interleave with ops at varying
		// phases.
		k.Idle(cfg.OpGap, cfg.IdleTick)
	}
	return nil
}

// runSweepWorkload is the whole workload: prefix then op loop.
func runSweepWorkload(m *machine.Machine, cfg SweepConfig, inj *fault.Injector, plan *SweepPlan) error {
	k, p, _, err := sweepBoot(m, cfg, inj, plan)
	if err != nil {
		return err
	}
	return sweepRun(k, p, cfg)
}

// PlanSweep runs the workload once with a counting-only injector and returns
// the event-stream plan the crash replays enumerate against. The plan also
// carries a copy-on-write snapshot of the pre-ops prefix; RunCrashPoint
// forks it for every crash point that lands past the prefix instead of
// re-simulating boot+attach+spawn each time.
func PlanSweep(cfg SweepConfig) (SweepPlan, error) {
	cfg = cfg.withDefaults()
	obs := fault.NewObserver()
	m := machine.New(machine.TestConfig())
	m.SetCommitHook(obs)
	var plan SweepPlan
	k, p, mgr, err := sweepBoot(m, cfg, obs, &plan)
	if err != nil {
		return SweepPlan{}, err
	}
	plan.prefix = &sweepPrefix{
		m:      m.Snapshot(),
		kernel: k.CaptureState(),
		mgr:    mgr.CaptureState(),
		events: obs.Events(),
	}
	if err := sweepRun(k, p, cfg); err != nil {
		return SweepPlan{}, err
	}
	plan.Events = obs.Events()
	plan.Checkpoints = m.Stats.Get("persist.checkpoints_started")
	if plan.Events == 0 {
		return SweepPlan{}, fmt.Errorf("sweep plan observed no durability events")
	}
	return plan, nil
}

// RunCrashPoint replays the planned workload with inj armed (typically
// fault.NewCrashBefore(k) or fault.NewTorn(k, words)), applies the power
// failure, reboots, recovers, and checks the recovery invariants. A nil
// return means this commit point recovers correctly.
//
// When the plan carries a prefix snapshot and the crash target lies past
// the prefix's durability events, the machine forks the frozen prefix
// copy-on-write instead of re-simulating boot+attach+spawn — the
// injector's counter is advanced by the prefix events so crash indices
// stay absolute. Targets inside the prefix (and observers) replay cold.
func RunCrashPoint(cfg SweepConfig, plan SweepPlan, inj *fault.Injector) error {
	cfg = cfg.withDefaults()
	var m *machine.Machine
	var runErr error
	var crashed bool
	if sp := plan.prefix; sp != nil && inj.Target() > sp.events {
		fm, k, _, err := sp.resume()
		if err != nil {
			return fmt.Errorf("forking sweep prefix: %w", err)
		}
		m = fm
		inj.Advance(sp.events)
		m.SetCommitHook(inj)
		p := k.Current()
		crashed = fault.Crashed(func() {
			runErr = sweepRun(k, p, cfg)
		})
	} else {
		m = machine.New(machine.TestConfig())
		m.SetCommitHook(inj)
		crashed = fault.Crashed(func() {
			runErr = runSweepWorkload(m, cfg, inj, nil)
		})
	}
	if runErr != nil {
		return fmt.Errorf("workload: %w", runErr)
	}
	// Host-side stats survive the simulated power failure; the pre-crash
	// count of started checkpoints bounds any recoverable generation.
	started := m.Stats.Get("persist.checkpoints_started")

	m.Crash()
	// Disarm before recovery: the injected failure already happened; the
	// recovery path's own durability events must not crash again.
	m.SetCommitHook(nil)

	k2 := gemos.Boot(m)
	mgr2, err := Reattach(k2, cfg.Interval)
	if err != nil {
		if crashed && inj.Events() <= plan.AttachEvents {
			// Legal: the crash predates the area header becoming durable
			// (or tore the header line itself); a real system would treat
			// the area as never initialized.
			return nil
		}
		return fmt.Errorf("reattach after crash at event %d: %w", inj.Events(), err)
	}
	procs, err := mgr2.Recover()
	if err != nil {
		return fmt.Errorf("recover after crash at event %d: %w", inj.Events(), err)
	}
	want := -1
	if !crashed || inj.Events() > plan.SpawnEvents {
		// Past the slot's valid flip (or no crash at all) the process must
		// be recoverable; before it, either outcome is legal.
		want = 1
	}
	exp := RecoveryExpectation{
		MaxOps:    uint64(cfg.Ops),
		MaxGen:    started,
		CheckGen:  true,
		WantProcs: want,
	}
	if err := CheckRecoveryInvariants(mgr2, procs, exp); err != nil {
		return fmt.Errorf("crash at event %d/%d: %w", inj.Events(), plan.Events, err)
	}
	return nil
}
