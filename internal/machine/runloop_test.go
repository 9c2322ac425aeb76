package machine

import (
	"fmt"
	"sync"
	"testing"

	"kindle/internal/sim"
)

// steppedRunUntil is the stepped run loop RunUntil replaced, kept as the
// reference it is checked against: it advances the clock one cycle group
// at a time (clamped at target) and ticks at every boundary, due events or
// not.
func steppedRunUntil(m *Machine, target, group sim.Cycles) {
	now := m.Clock.Now()
	if target <= now {
		return
	}
	if group <= 0 {
		group = target - now
	}
	for now < target {
		step := group
		if rem := target - now; rem < step {
			step = rem
		}
		m.Clock.Advance(step)
		m.Tick()
		now = m.Clock.Now()
	}
}

// runloopScript drives one Machine through a randomized event population —
// one-shot events, self-rescheduling periodic timers, and handlers that
// advance the clock mid-tick (checkpoints do) — advancing time with
// runUntil, and returns the firing log plus the final clock. The script
// depends only on the seed, so RunUntil and steppedRunUntil given the same
// seed must produce identical logs.
func runloopScript(t *testing.T, seed uint64, runUntil func(m *Machine, target, group sim.Cycles)) ([]string, sim.Cycles) {
	t.Helper()
	m := New(TestConfig())
	rng := sim.NewRNG(seed)
	var log []string
	record := func(name string, fire sim.Cycles) {
		log = append(log, fmt.Sprintf("%s@%d/clock%d", name, fire, m.Clock.Now()))
	}

	// One-shot events, deadlines drawn small so several share a boundary.
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("one%d", i)
		when := sim.Cycles(rng.Intn(5000))
		m.Events.Schedule(when, name, func(fire sim.Cycles) { record(name, fire) })
	}
	// Periodic timers with distinct periods; one also burns simulated time
	// inside its handler, pushing the clock past upcoming boundaries.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("per%d", i)
		period := sim.Cycles(50 + rng.Intn(400))
		burn := sim.Cycles(0)
		if i == 1 {
			burn = sim.Cycles(rng.Intn(300))
		}
		var fn func(sim.Cycles)
		fn = func(fire sim.Cycles) {
			record(name, fire)
			if burn > 0 {
				m.Clock.Advance(burn)
			}
			if fire < 40_000 {
				m.Events.Schedule(m.Clock.Now()+period, name, fn)
			}
		}
		m.Events.Schedule(period, name, fn)
	}

	// Alternate idle stretches at varying grains with instant work bursts
	// that schedule more events (some already due).
	for step := 0; step < 8; step++ {
		group := sim.Cycles(rng.Intn(701)) // 0: one step to the target
		runUntil(m, m.Clock.Now()+sim.Cycles(2000+rng.Intn(6000)), group)
		name := fmt.Sprintf("mid%d", step)
		delta := sim.Cycles(rng.Intn(300)) // sometimes 0: due immediately
		m.Events.Schedule(m.Clock.Now()+delta, name, func(fire sim.Cycles) { record(name, fire) })
	}
	runUntil(m, m.Clock.Now()+20_000, 256)
	return log, m.Clock.Now()
}

// TestRunUntilMatchesStepped is the randomized property: for any event
// population and idle pattern, RunUntil fires the same events at the same
// deadlines with the same clock values as the stepped loop that visits
// every boundary, and finishes at the same cycle.
func TestRunUntilMatchesStepped(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		stepped, sc := runloopScript(t, seed, steppedRunUntil)
		event, ec := runloopScript(t, seed, (*Machine).RunUntil)
		if sc != ec {
			t.Fatalf("seed %d: final clocks differ: stepped %d, event %d", seed, sc, ec)
		}
		if len(stepped) != len(event) {
			t.Fatalf("seed %d: fired %d vs %d events\nstepped: %v\nevent:   %v",
				seed, len(stepped), len(event), stepped, event)
		}
		for i := range stepped {
			if stepped[i] != event[i] {
				t.Fatalf("seed %d: firing %d differs: stepped %q, event %q",
					seed, i, stepped[i], event[i])
			}
		}
	}
}

// TestRunUntilDegenerateArgs pins the edge cases: a target at or before now
// is a no-op, and group 0 means one step straight to the target.
func TestRunUntilDegenerateArgs(t *testing.T) {
	m := New(TestConfig())
	m.Clock.AdvanceTo(1000)
	m.RunUntil(1000, 16) // target == now
	m.RunUntil(500, 16)  // target < now
	if m.Clock.Now() != 1000 {
		t.Fatalf("clock moved to %d on no-op RunUntil", m.Clock.Now())
	}
	fired := 0
	m.Events.Schedule(1500, "x", func(sim.Cycles) { fired++ })
	m.RunUntil(2000, 0) // single step to target
	if m.Clock.Now() != 2000 || fired != 1 {
		t.Fatalf("clock %d fired %d, want 2000/1", m.Clock.Now(), fired)
	}
}

// TestRunUntilConcurrentMachinesIsolated runs many machines
// concurrently, each with self-rescheduling events mutating only their own
// machine's state. Under -race this pins the satellite requirement that
// event callbacks share no state across sharded machines.
func TestRunUntilConcurrentMachinesIsolated(t *testing.T) {
	const n = 8
	logs := make([][]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := New(TestConfig())
			var fn func(sim.Cycles)
			fn = func(fire sim.Cycles) {
				logs[i] = append(logs[i], fmt.Sprintf("tick@%d", fire))
				m.Stats.Inc("test.ticks")
				if fire < 100_000 {
					m.Events.Schedule(m.Clock.Now()+1000, "tick", fn)
				}
			}
			m.Events.Schedule(1000, "tick", fn)
			m.RunUntil(200_000, 64)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if len(logs[i]) != len(logs[0]) {
			t.Fatalf("machine %d fired %d events, machine 0 fired %d", i, len(logs[i]), len(logs[0]))
		}
		for j := range logs[i] {
			if logs[i][j] != logs[0][j] {
				t.Fatalf("machine %d log diverges at %d: %q vs %q", i, j, logs[i][j], logs[0][j])
			}
		}
	}
}
