package machine

import "kindle/internal/sim"

// RunUntil advances the machine with no instructions in flight until the
// clock reaches target, firing due events along the way. Events fire on
// cycle-group boundaries: the boundaries lie group cycles apart, measured
// from wherever the clock stood at the previous one (clamped at target),
// exactly as an OS run loop interleaving Clock.Advance with Machine.Tick
// would visit them. group <= 0 means a single step to target.
//
// The loop jumps the clock straight to the first boundary at or past the
// earliest pending deadline (clamped at target) and ticks there.
// Boundaries strictly before that deadline have no due events, so visiting
// them would be a no-op. Handlers that advance the clock themselves
// (checkpoints do) move the origin of the next boundary: each iteration
// re-reads the clock and measures from wherever the last handler left it.
func (m *Machine) RunUntil(target, group sim.Cycles) {
	now := m.Clock.Now()
	if target <= now {
		return
	}
	if group <= 0 {
		group = target - now
	}
	for now < target {
		next := target
		if when, ok := m.Events.NextDeadline(); ok && when <= target {
			// First group boundary >= the deadline. A deadline already
			// at or before now (scheduled by a handler that just ran)
			// fires at the next boundary, now+group.
			boundary := now + group
			if when > now {
				k := (when - now + group - 1) / group
				boundary = now + k*group
			}
			if boundary < next {
				next = boundary
			}
		}
		m.Clock.AdvanceTo(next)
		m.Tick()
		now = m.Clock.Now()
	}
}

// RunIdle advances the machine d cycles of idle time, firing due events on
// boundaries group cycles apart; see RunUntil.
func (m *Machine) RunIdle(d, group sim.Cycles) {
	m.RunUntil(m.Clock.Now()+d, group)
}
