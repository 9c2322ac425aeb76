package mem

import (
	"encoding/binary"
	"fmt"
	"testing"

	"kindle/internal/sim"
)

// TestPersistDomainWordMatchesBytePath drives two domains through the same
// random operations: one through ReadU64/WriteU64, the other through 8-byte
// Read/Write. Both sit on copy-on-write forks of one seeded store, share a
// commit hook that tears and suppresses some commits, and touch DRAM and
// NVM words that are aligned, unaligned and page-crossing, with and
// without pending lines. Every read must agree, and so must the bytes,
// pending lines, populated frames and commit decisions left behind.
func TestPersistDomainWordMatchesBytePath(t *testing.T) {
	for _, seed := range []uint64{1, 2, 2718} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { wordIdentityRun(t, seed) })
	}
}

func wordIdentityRun(t *testing.T, seed uint64) {
	l := SmallLayout()
	const pages = 4
	// Four pages on each side of a 2 MiB slab boundary in each region.
	dram := l.DRAMBase + 2*MiB - 2*PageSize
	nvm := l.NVMBase + 2*MiB - 2*PageSize

	rng := sim.NewRNG(seed)
	base := NewBacking()
	for i := 0; i < 64; i++ {
		for _, region := range []PhysAddr{dram, nvm} {
			base.WriteU64(region+PhysAddr(rng.Uint64n(pages*PageSize/8)*8), rng.Uint64())
		}
	}

	type side struct {
		p       *PersistDomain
		b       *Backing
		commits []string
	}
	newSide := func() *side {
		s := &side{b: base.Fork()}
		s.p = NewPersistDomain(l, s.b, sim.NewStats())
		s.p.SetCommitHook(hookFunc(func(line PhysAddr) CommitDecision {
			var d CommitDecision
			switch n := uint64(line) / LineSize; {
			case n%5 == 0:
				d = CommitDecision{Outcome: CommitTorn, Words: int(n % 8)}
			case n%7 == 0:
				d = CommitDecision{Outcome: CommitNone}
			}
			s.commits = append(s.commits, fmt.Sprintf("%#x:%v", uint64(line), d))
			return d
		}))
		return s
	}
	word, bytes := newSide(), newSide()

	addr := func() PhysAddr {
		region := dram
		if rng.Intn(2) == 0 {
			region = nvm
		}
		switch rng.Intn(8) {
		case 0: // unaligned
			return region + PhysAddr(rng.Uint64n(pages*PageSize-8))
		case 1: // crossing a page boundary
			return region + PhysAddr(rng.Uint64n(pages-1)+1)*PageSize - PhysAddr(1+rng.Uint64n(7))
		default:
			return region + PhysAddr(rng.Uint64n(pages*PageSize/8)*8)
		}
	}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(100); {
		case r < 40:
			pa, v := addr(), rng.Uint64()
			word.p.WriteU64(pa, v)
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], v)
			bytes.p.Write(pa, buf[:])
		case r < 90:
			pa := addr()
			var buf [8]byte
			bytes.p.Read(pa, buf[:])
			if got, want := word.p.ReadU64(pa), binary.LittleEndian.Uint64(buf[:]); got != want {
				t.Fatalf("op %d: ReadU64(%#x) = %#x, byte path read %#x", op, uint64(pa), got, want)
			}
		case r < 99:
			pa := addr()
			word.p.CommitLine(pa)
			bytes.p.CommitLine(pa)
		default:
			word.p.CommitAll()
			bytes.p.CommitAll()
		}
	}

	if a, b := word.p.PendingLines(), bytes.p.PendingLines(); a != b {
		t.Fatalf("pending lines: word path %d, byte path %d", a, b)
	}
	if a, b := word.b.PopulatedFrames(), bytes.b.PopulatedFrames(); a != b {
		t.Fatalf("populated frames: word path %d, byte path %d", a, b)
	}
	if fmt.Sprint(word.commits) != fmt.Sprint(bytes.commits) {
		t.Fatal("commit hook saw different commit sequences")
	}
	if len(word.commits) == 0 {
		t.Fatal("no commits reached the hook")
	}
	for _, region := range []PhysAddr{dram, nvm} {
		a := make([]byte, pages*PageSize)
		b := make([]byte, pages*PageSize)
		word.p.Read(region, a)
		bytes.p.Read(region, b)
		if string(a) != string(b) {
			t.Fatalf("cache-visible bytes at %#x differ", uint64(region))
		}
		word.p.ReadCommitted(region, a)
		bytes.p.ReadCommitted(region, b)
		if string(a) != string(b) {
			t.Fatalf("committed bytes at %#x differ", uint64(region))
		}
	}
}
