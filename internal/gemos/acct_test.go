package gemos

import (
	"testing"

	"kindle/internal/mem"
)

func TestAcctFaultsAndResidentPages(t *testing.T) {
	k, p := bootTest(t)
	a, err := k.Mmap(p, 0, 4*mem.PageSize, ProtRead|ProtWrite, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if _, err := k.M.Core.Access(a+i*mem.PageSize, true, 8); err != nil {
			t.Fatal(err)
		}
	}
	acct := p.Accounting()
	if acct.Faults != 4 || acct.ResidentPages != 4 {
		t.Fatalf("after 4 demand faults: Faults=%d ResidentPages=%d, want 4/4", acct.Faults, acct.ResidentPages)
	}
	// Re-touching resident pages faults nothing.
	if _, err := k.M.Core.Access(a, false, 8); err != nil {
		t.Fatal(err)
	}
	if got := p.Accounting(); got.Faults != 4 || got.ResidentPages != 4 {
		t.Fatalf("resident re-access changed accounting: %+v", got)
	}
	// Munmap returns the frames and the per-process residency with them;
	// the fault count is cumulative and stays.
	if err := k.Munmap(p, a, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := p.Accounting(); got.Faults != 4 || got.ResidentPages != 2 {
		t.Fatalf("after unmapping 2 resident pages: Faults=%d ResidentPages=%d, want 4/2", got.Faults, got.ResidentPages)
	}
	// Exit zeroes residency (the table is destroyed).
	k.Exit(p)
	if got := p.Accounting(); got.ResidentPages != 0 {
		t.Fatalf("after exit: ResidentPages=%d, want 0", got.ResidentPages)
	}
}

func TestAcctCPUCyclesAcrossSwitches(t *testing.T) {
	k, p1 := bootTest(t)
	p2, err := k.Spawn("other")
	if err != nil {
		t.Fatal(err)
	}
	a, err := k.Mmap(p1, 0, mem.PageSize, ProtRead|ProtWrite, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.M.Core.Access(a, true, 8); err != nil {
		t.Fatal(err)
	}
	k.Switch(p2) // settles p1's dispatch period
	acct1 := p1.Accounting()
	if acct1.CPUCycles == 0 {
		t.Fatal("p1 ran memory work but has zero CPU cycles")
	}
	if acct1.Switches != 1 {
		t.Fatalf("p1 Switches=%d, want 1 (the initial dispatch)", acct1.Switches)
	}
	// The switch cost itself is kernel time: it lands on neither side.
	if got := p2.Accounting().CPUCycles; got != 0 {
		t.Fatalf("p2 charged %d cycles before running anything", got)
	}
	// AccountNow folds the open period without a switch.
	k.M.Clock.Advance(500)
	k.AccountNow()
	if got := p2.Accounting().CPUCycles; got != 500 {
		t.Fatalf("p2 CPUCycles=%d after AccountNow, want 500", got)
	}
	// A second AccountNow with no elapsed time adds nothing.
	k.AccountNow()
	if got := p2.Accounting().CPUCycles; got != 500 {
		t.Fatalf("AccountNow double-charged: %d", got)
	}
}

func TestParkChargesNoProcess(t *testing.T) {
	k, p := bootTest(t)
	k.AccountNow()
	before := p.Accounting().CPUCycles
	k.Park(10_000, 1000)
	k.AccountNow()
	if got := p.Accounting().CPUCycles; got != before {
		t.Fatalf("Park charged the current process: %d -> %d cycles", before, got)
	}
	// Plain Idle, by contrast, leaves the dispatch period open across the
	// dead time, so the next settle charges it.
	k.Idle(10_000, 1000)
	k.AccountNow()
	if got := p.Accounting().CPUCycles; got != before+10_000 {
		t.Fatalf("Idle+AccountNow charged %d cycles, want %d", got-before, 10_000)
	}
}

func TestSchedulerSkipsBlocked(t *testing.T) {
	k, p1 := bootTest(t)
	p2, err := k.Spawn("blocked")
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(k, 1000)
	s.Add(p1)
	s.Add(p2)
	p2.State = ProcBlocked
	for i := 0; i < 3; i++ {
		if got := s.Resched(); got != p1 {
			t.Fatalf("Resched %d picked %v, want the only runnable process", i, got)
		}
	}
	s.Wake(p2)
	picked := map[*Process]bool{}
	picked[s.Resched()] = true
	picked[s.Resched()] = true
	if !picked[p1] || !picked[p2] {
		t.Fatal("unblocked process never scheduled")
	}
	// With every process blocked, Resched reports no runnable process.
	p1.State = ProcBlocked
	p2.State = ProcBlocked
	if got := s.Resched(); got != nil {
		t.Fatalf("Resched with all blocked returned %v, want nil", got)
	}
}
