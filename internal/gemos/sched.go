package gemos

import (
	"math/bits"

	"kindle/internal/sim"
)

// Scheduler is a round-robin time slicer. gemOS keeps scheduling minimal —
// the paper values it for *not* running background services that pollute
// statistics — but Kindle exposes a scheduler so experiments can study the
// influence of context switches and co-running processes on hybrid-memory
// mechanisms (an OS activity user-level simulators cannot model).
type Scheduler struct {
	k       *Kernel
	quantum sim.Cycles
	queue   []*Process
	next    int

	// ready has bit i set whenever queue[i] is runnable. A set bit whose
	// process has since blocked or exited is cleared when Resched meets
	// it, so blocking stays a plain State write; unblocking must go
	// through Wake to set the bit again.
	ready []uint64

	ev *sim.Event
	on bool

	// expired is set by the timer event; the run loop observes it via
	// NeedsResched and performs the switch at the next safe point
	// (between instructions), like a real kernel's need_resched flag.
	expired bool
}

// NewScheduler builds a scheduler with the given time quantum.
func NewScheduler(k *Kernel, quantum sim.Cycles) *Scheduler {
	return &Scheduler{k: k, quantum: quantum}
}

// Add enqueues a process for time slicing. A process is enqueued at most
// once.
func (s *Scheduler) Add(p *Process) {
	s.queue = append(s.queue, p)
	s.rebuild()
}

// Remove drops a process (exited or detached).
func (s *Scheduler) Remove(p *Process) {
	for i, q := range s.queue {
		if q == p {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			if s.next > i {
				s.next--
			}
			s.rebuild()
			return
		}
	}
}

// rebuild recomputes every queue slot and ready bit from the queue.
func (s *Scheduler) rebuild() {
	s.ready = make([]uint64, (len(s.queue)+63)/64)
	for i, p := range s.queue {
		p.schedSlot = i
		if p.runnable() {
			s.ready[i/64] |= 1 << (i % 64)
		}
	}
}

// Wake unblocks p: a ProcBlocked process becomes ProcReady and is
// eligible again at its place in the rotation. Waking a runnable process
// is a no-op; zombies stay zombies.
func (s *Scheduler) Wake(p *Process) {
	if p.State == ProcBlocked {
		p.State = ProcReady
	}
	if i := p.schedSlot; p.runnable() && i < len(s.queue) && s.queue[i] == p {
		s.ready[i/64] |= 1 << (i % 64)
	}
}

// Len reports the number of scheduled processes.
func (s *Scheduler) Len() int { return len(s.queue) }

// Start arms the preemption timer.
func (s *Scheduler) Start() {
	if s.on {
		return
	}
	s.on = true
	s.arm()
}

// Stop disarms it. The event allocation is kept for the next Start.
func (s *Scheduler) Stop() {
	s.on = false
	s.k.M.Events.Cancel(s.ev)
}

// arm schedules the next preemption tick, reusing one Event allocation for
// the scheduler's lifetime so periodic re-arming stays allocation-free.
func (s *Scheduler) arm() {
	when := s.k.M.Clock.Now() + s.quantum
	if s.ev != nil {
		s.k.M.Events.Reschedule(s.ev, when)
		return
	}
	s.ev = s.k.M.Events.Schedule(when, "sched.tick", func(sim.Cycles) {
		if !s.on {
			return
		}
		s.expired = true
		s.k.schedTicks.Inc()
		s.arm()
	})
}

// NeedsResched reports whether the quantum expired since the last switch.
func (s *Scheduler) NeedsResched() bool { return s.expired }

// Resched rotates to the next ready process and switches to it, clearing
// the expired flag. Zombie and blocked processes are skipped. It returns
// the process now running (nil when no process is runnable — the caller
// idles until one unblocks).
//
// The rotation is a linear scan of the queue from slot next%len, one
// slot per step, with next advanced once per slot examined (len slots
// when nothing is runnable). The ready bitset finds the same slot without
// visiting the ones in between.
func (s *Scheduler) Resched() *Process {
	s.expired = false
	n := len(s.queue)
	if n == 0 {
		return nil
	}
	start := s.next % n
	i := s.pick(start, n)
	if i < 0 {
		i = s.pick(0, start)
	}
	if i < 0 {
		s.next += n
		return nil
	}
	s.next += (i-start+n)%n + 1
	p := s.queue[i]
	s.k.Switch(p)
	return p
}

// pick returns the first runnable slot in [lo, hi), or -1, clearing the
// ready bits of blocked and zombie processes it passes.
func (s *Scheduler) pick(lo, hi int) int {
	for lo < hi {
		w := lo / 64
		word := s.ready[w] & (^uint64(0) << (lo % 64))
		if word == 0 {
			lo = (w + 1) * 64
			continue
		}
		i := w*64 + bits.TrailingZeros64(word)
		if i >= hi {
			return -1
		}
		if s.queue[i].runnable() {
			return i
		}
		s.ready[w] &^= 1 << (i % 64)
		lo = i + 1
	}
	return -1
}
