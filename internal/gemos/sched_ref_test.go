package gemos

import (
	"fmt"
	"testing"

	"kindle/internal/machine"
	"kindle/internal/sim"
)

// refScheduler is the linear-scan round robin the ready-set Scheduler
// replaced, kept as the oracle for its rotation order: it examines one
// queue slot per step from next%len and advances next once per slot
// examined. It does not switch; the Scheduler under test does that.
type refScheduler struct {
	queue []*Process
	next  int
}

func (s *refScheduler) Add(p *Process) { s.queue = append(s.queue, p) }

func (s *refScheduler) Remove(p *Process) {
	for i, q := range s.queue {
		if q == p {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			if s.next > i {
				s.next--
			}
			return
		}
	}
}

func (s *refScheduler) Resched() *Process {
	if len(s.queue) == 0 {
		return nil
	}
	for tries := 0; tries < len(s.queue); tries++ {
		p := s.queue[s.next%len(s.queue)]
		s.next++
		if p.State == ProcZombie || p.State == ProcBlocked {
			continue
		}
		return p
	}
	return nil
}

// TestSchedulerMatchesLinearScan drives the Scheduler and refScheduler
// through the same random operations — Add, Remove (front, middle, the
// running process), blocking by a State write, Wake, Exit and Resched —
// and requires the same pick, the same nil returns and the same raw next
// counter after every operation. Queue sizes straddle the 64-slot words
// of the ready set.
func TestSchedulerMatchesLinearScan(t *testing.T) {
	for _, size := range []int{1, 2, 63, 64, 65, 130} {
		for _, seed := range []uint64{1, 2, 2718} {
			t.Run(fmt.Sprintf("n=%d/seed=%d", size, seed), func(t *testing.T) {
				schedulerOracleRun(t, size, seed)
			})
		}
	}
}

func schedulerOracleRun(t *testing.T, size int, seed uint64) {
	k := Boot(machine.New(machine.TestConfig()))
	rng := sim.NewRNG(seed)
	s := NewScheduler(k, 1000)
	ref := &refScheduler{}
	spawn := func() {
		p, err := k.Spawn("p")
		if err != nil {
			t.Fatal(err)
		}
		s.Add(p)
		ref.Add(p)
	}
	remove := func(p *Process) {
		s.Remove(p)
		ref.Remove(p)
	}
	for i := 0; i < size; i++ {
		spawn()
	}
	// Start with some processes blocked and some already exited.
	for _, p := range ref.queue {
		switch rng.Intn(4) {
		case 0:
			p.State = ProcBlocked
		case 1:
			if rng.Intn(4) == 0 {
				k.Exit(p)
			}
		}
	}
	var picks, nils int
	for op := 0; op < 4000; op++ {
		n := len(ref.queue)
		// Alternate waking and blocking phases so the run reaches both a
		// mostly runnable queue and one with nothing runnable.
		r := rng.Intn(100)
		if op/500%2 == 1 && r >= 35 && r < 60 {
			r = 20 // block instead of wake
		}
		var desc string
		switch {
		case r < 5 && n < size+2:
			desc = "add"
			spawn()
		case r < 8 && n > 0:
			desc = "remove front"
			remove(ref.queue[0])
		case r < 11 && n > 0:
			desc = "remove middle"
			remove(ref.queue[rng.Intn(n)])
		case r < 13 && k.Current() != nil:
			desc = "remove current"
			remove(k.Current())
		case r < 35 && n > 0:
			desc = "block"
			// Block the first runnable process from a random slot.
			for j, i := rng.Intn(n), 0; i < n; i++ {
				if p := ref.queue[(j+i)%n]; p.runnable() {
					p.State = ProcBlocked
					break
				}
			}
		case r < 60 && n > 0:
			desc = "wake"
			s.Wake(ref.queue[rng.Intn(n)])
		case r < 62 && n > 0:
			desc = "exit"
			if p := ref.queue[rng.Intn(n)]; p.State != ProcZombie {
				k.Exit(p)
			}
		default:
			desc = "resched"
			want := ref.Resched()
			got := s.Resched()
			if got != want {
				t.Fatalf("op %d: Resched picked %v, want %v", op, got, want)
			}
			if got == nil {
				nils++
			} else {
				picks++
				if k.Current() != got {
					t.Fatalf("op %d: Resched did not switch to %v", op, got)
				}
			}
		}
		if s.next != ref.next || s.Len() != len(ref.queue) {
			t.Fatalf("op %d (%s): next %d len %d, want next %d len %d",
				op, desc, s.next, s.Len(), ref.next, len(ref.queue))
		}
	}
	if picks == 0 || nils == 0 {
		t.Fatalf("degenerate run: %d picks, %d nil returns", picks, nils)
	}
}
