package bench

import (
	"bytes"
	"fmt"
	"time"

	"kindle/internal/core"
	"kindle/internal/gemos"
	"kindle/internal/mem"
	"kindle/internal/persist"
	"kindle/internal/sim"
)

// LongHorizonConfig describes the idle-heavy checkpoint-lifecycle workload
// behind BenchmarkLongHorizon and the long-horizon golden digests: short
// bursts of page touches separated by long idle windows in which only the
// checkpoint timer and NVM write-buffer drains are active, optionally with
// a crash + recovery in the middle. Zero-value fields take defaults.
type LongHorizonConfig struct {
	// Phases is the number of work+idle rounds (default 6).
	Phases int
	// OpsPerPhase is the number of page touches per round (default 32).
	OpsPerPhase int
	// IdlePerPhase is the simulated idle gap after each round's ops
	// (default 50 ms — 150 M cycles of dead time per round).
	IdlePerPhase time.Duration
	// IdleTick is the cycle-group grain during the idle gaps (default
	// 250 ns): due timers fire on boundaries IdleTick apart, and the clock
	// jumps straight between boundaries that have due events.
	IdleTick time.Duration
	// Interval is the checkpoint interval (default 5 ms).
	Interval time.Duration
	// CrashAtPhase, when >0, checkpoints, power-fails and recovers the
	// machine after that round (0 = never).
	CrashAtPhase int
}

func (c LongHorizonConfig) withDefaults() LongHorizonConfig {
	if c.Phases == 0 {
		c.Phases = 6
	}
	if c.OpsPerPhase == 0 {
		c.OpsPerPhase = 32
	}
	if c.IdlePerPhase == 0 {
		c.IdlePerPhase = 50 * time.Millisecond
	}
	if c.IdleTick == 0 {
		c.IdleTick = 250 * time.Nanosecond
	}
	if c.Interval == 0 {
		c.Interval = 5 * time.Millisecond
	}
	return c
}

// LongHorizonResult is one lifecycle run's outcome.
type LongHorizonResult struct {
	// Cycles is the final simulated clock.
	Cycles sim.Cycles
	// Checkpoints is persist.checkpoints_started at the end of the run.
	Checkpoints uint64
	// Crashes is machine.crashes at the end of the run.
	Crashes uint64
	// Dump is the full stats dump, the artifact the golden digests pin.
	Dump []byte
}

// RunLongHorizon executes the lifecycle on a fresh small machine. The
// workload is fully deterministic (seeded RNG, no host-time dependence), so
// repeated runs of one config return identical results.
func RunLongHorizon(cfg LongHorizonConfig) (*LongHorizonResult, error) {
	cfg = cfg.withDefaults()
	f := core.NewSmall()
	if _, err := f.EnablePersistence(persist.Rebuild, cfg.Interval); err != nil {
		return nil, fmt.Errorf("bench: longhorizon persistence: %w", err)
	}
	p, err := f.K.Spawn("longhorizon")
	if err != nil {
		return nil, err
	}
	f.K.Switch(p)
	f.Manager().Start()

	const pages = 64
	base, err := f.K.Mmap(p, 0, pages*mem.PageSize, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(1)
	for phase := 1; phase <= cfg.Phases; phase++ {
		for i := 0; i < cfg.OpsPerPhase; i++ {
			off := uint64(rng.Intn(pages)) * mem.PageSize
			if _, err := f.M.Core.Access(base+off, true, 8); err != nil {
				return nil, fmt.Errorf("bench: longhorizon phase %d op %d: %w", phase, i, err)
			}
		}
		f.RunIdle(cfg.IdlePerPhase, cfg.IdleTick)
		if phase == cfg.CrashAtPhase {
			f.Manager().Checkpoint()
			f.Crash()
			procs, err := f.Recover(cfg.Interval)
			if err != nil {
				return nil, fmt.Errorf("bench: longhorizon recovery: %w", err)
			}
			if len(procs) != 1 {
				return nil, fmt.Errorf("bench: longhorizon recovered %d processes, want 1", len(procs))
			}
			p = procs[0]
			f.K.Switch(p)
			f.Manager().Start()
		}
	}

	var dump bytes.Buffer
	if err := f.M.Stats.WriteStatsFile(&dump); err != nil {
		return nil, err
	}
	return &LongHorizonResult{
		Cycles:      f.M.Clock.Now(),
		Checkpoints: f.M.Stats.Get("persist.checkpoints_started"),
		Crashes:     f.M.Stats.Get("machine.crashes"),
		Dump:        dump.Bytes(),
	}, nil
}
