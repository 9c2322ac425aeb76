package mem

import (
	"encoding/binary"
	"fmt"
	"sort"

	"kindle/internal/sim"
)

// PersistDomain implements NVM crash semantics on top of the functional
// Backing store. CPU stores to NVM first land in the volatile cache
// hierarchy; they become durable only when the line is written back —
// explicitly (clwb + fence) or implicitly (dirty eviction). A power failure
// loses everything not yet written back.
//
// Rather than holding data functionally inside the simulated caches, the
// domain keeps two images per dirty NVM line: the *committed* bytes (what
// the array holds) and the *pending* bytes (what the caches hold). Commit
// moves pending to committed; Crash discards pending. Reads through the
// memory system observe pending data (caches are coherent); recovery code
// running after a crash observes committed data only.
type PersistDomain struct {
	layout  Layout
	backing *Backing
	stats   *sim.Stats

	// pending maps a line base address to the cached (not yet durable)
	// contents of the full 64-byte line. The backing store continues to
	// hold the committed image until commit time.
	pending map[PhysAddr]*[LineSize]byte

	// freeBufs recycles line buffers between pending cycles (a line going
	// dirty → committed → dirty again is the common case and should not
	// allocate each round trip).
	freeBufs []*[LineSize]byte

	// hook, when non-nil, observes (and may intercept) every line commit.
	// Fault injection installs one; nil costs a single branch.
	hook CommitHook

	commits *sim.Counter
}

// CommitOutcome tells the domain what to do with one line commit.
type CommitOutcome int

const (
	// CommitFull lets the whole line become durable (the default).
	CommitFull CommitOutcome = iota
	// CommitNone suppresses the commit: the line stays volatile.
	CommitNone
	// CommitTorn makes only the first Words 8-byte words of the line
	// durable, modeling a power failure mid-line on a device with an
	// 8-byte atomic write unit (PCM).
	CommitTorn
)

// CommitDecision is a CommitHook's verdict on one durability event. The
// zero value means "commit fully, keep running".
type CommitDecision struct {
	Outcome CommitOutcome
	// Words is the torn-prefix length in 8-byte words (1..7) for
	// CommitTorn.
	Words int
	// Crash aborts the simulation at this exact point by panicking with
	// CommitCrash after the outcome is applied; the harness recovers the
	// panic and calls Machine.Crash (see internal/fault).
	Crash bool
}

// CommitHook observes every NVM line-commit (durability) event: clwb/clflush
// completion, dirty write-back from the cache hierarchy, and each line of a
// CommitRange/CommitAll. It runs before the line becomes durable.
type CommitHook interface {
	OnCommit(line PhysAddr) CommitDecision
}

// CommitCrash is the panic value a CommitDecision with Crash set raises; it
// models a power failure at a precise durability event.
type CommitCrash struct {
	Line PhysAddr
}

func (c CommitCrash) String() string {
	return fmt.Sprintf("injected crash at commit of line %#x", uint64(c.Line))
}

// SetCommitHook installs (nil removes) the commit interceptor.
func (p *PersistDomain) SetCommitHook(h CommitHook) { p.hook = h }

// NewPersistDomain wraps backing with crash semantics for the NVM region of
// layout.
func NewPersistDomain(layout Layout, backing *Backing, stats *sim.Stats) *PersistDomain {
	return &PersistDomain{
		layout:  layout,
		backing: backing,
		stats:   stats,
		pending: make(map[PhysAddr]*[LineSize]byte),
		commits: stats.Counter("persist.commit"),
	}
}

// isNVM reports whether pa belongs to the persistent region.
func (p *PersistDomain) isNVM(pa PhysAddr) bool { return p.layout.KindOf(pa) == NVM }

// pendingNVM returns the pending buffer for line if pa is NVM and the line
// has one.
func (p *PersistDomain) pendingNVM(pa, line PhysAddr) (*[LineSize]byte, bool) {
	if !p.isNVM(pa) {
		return nil, false
	}
	buf, ok := p.pending[line]
	return buf, ok
}

// Read copies the *cache-visible* bytes at pa into dst: pending data where
// it exists, committed data elsewhere. Accesses may span lines.
func (p *PersistDomain) Read(pa PhysAddr, dst []byte) {
	for len(dst) > 0 {
		line := LineBase(pa)
		off := uint64(pa - line)
		n := uint64(LineSize) - off
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		// Test the region before probing the pending map: DRAM reads (the
		// page-walk path issues many) never have pending data, and the
		// layout check is two compares against a map lookup.
		if buf, ok := p.pendingNVM(pa, line); ok {
			copy(dst[:n], buf[off:off+n])
		} else {
			p.backing.Read(pa, dst[:n])
		}
		dst = dst[n:]
		pa += PhysAddr(n)
	}
}

// Write stores src at pa with cache-visible (volatile for NVM) semantics.
// DRAM writes go straight to backing — DRAM has no durability to model and
// is dropped wholesale on crash. NVM writes populate the pending image.
func (p *PersistDomain) Write(pa PhysAddr, src []byte) {
	for len(src) > 0 {
		line := LineBase(pa)
		off := uint64(pa - line)
		n := uint64(LineSize) - off
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		if p.isNVM(pa) {
			buf, ok := p.pending[line]
			if !ok {
				if n := len(p.freeBufs); n > 0 {
					buf = p.freeBufs[n-1]
					p.freeBufs = p.freeBufs[:n-1]
				} else {
					buf = new([LineSize]byte)
				}
				p.backing.Read(line, buf[:]) // start from committed image
				p.pending[line] = buf
			}
			copy(buf[off:off+n], src[:n])
		} else {
			p.backing.Write(pa, src[:n])
		}
		src = src[n:]
		pa += PhysAddr(n)
	}
}

// ReadU64 reads the cache-visible little-endian word at pa, like an
// 8-byte Read. An 8-aligned word lies inside one line, so it is read in
// place: from the pending buffer when its NVM line has one, from backing
// otherwise. Unaligned words take the byte path.
func (p *PersistDomain) ReadU64(pa PhysAddr) uint64 {
	if pa%8 != 0 {
		var buf [8]byte
		p.Read(pa, buf[:])
		return binary.LittleEndian.Uint64(buf[:])
	}
	if buf, ok := p.pendingNVM(pa, LineBase(pa)); ok {
		return binary.LittleEndian.Uint64(buf[pa%LineSize:])
	}
	return p.backing.ReadU64(pa)
}

// WriteU64 stores the little-endian word v at pa, like an 8-byte Write.
// An 8-aligned word outside NVM goes straight to backing; NVM and
// unaligned words take the byte path, which maintains the pending image.
func (p *PersistDomain) WriteU64(pa PhysAddr, v uint64) {
	if pa%8 == 0 && !p.isNVM(pa) {
		p.backing.WriteU64(pa, v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	p.Write(pa, buf[:])
}

// CommitLine makes the pending contents of the line containing pa durable.
// Called on clwb/clflush completion and on dirty write-back of an NVM line
// from the cache hierarchy. Committing a line with no pending data is a
// no-op (clwb of a clean line).
func (p *PersistDomain) CommitLine(pa PhysAddr) {
	line := LineBase(pa)
	buf, ok := p.pending[line]
	if !ok {
		return
	}
	if p.hook != nil {
		d := p.hook.OnCommit(line)
		switch d.Outcome {
		case CommitNone:
			// The line stays volatile (and is lost if d.Crash follows).
			if d.Crash {
				panic(CommitCrash{Line: line})
			}
			return
		case CommitTorn:
			w := d.Words
			if w < 1 {
				w = 1
			}
			if w > LineSize/8-1 {
				w = LineSize/8 - 1
			}
			p.backing.Write(line, buf[:w*8])
			p.stats.Inc("persist.commit_torn")
			if d.Crash {
				panic(CommitCrash{Line: line})
			}
			return
		default:
			if d.Crash {
				// Full commit, then power loss: the line is durable but
				// nothing after it is.
				p.backing.Write(line, buf[:])
				p.release(line, buf)
				p.commits.Inc()
				panic(CommitCrash{Line: line})
			}
		}
	}
	p.backing.Write(line, buf[:])
	p.release(line, buf)
	p.commits.Inc()
}

// release retires a no-longer-pending line's buffer into the recycle pool
// (bounded so one huge dirty burst cannot pin buffers forever).
func (p *PersistDomain) release(line PhysAddr, buf *[LineSize]byte) {
	delete(p.pending, line)
	if len(p.freeBufs) < 1<<14 {
		p.freeBufs = append(p.freeBufs, buf)
	}
}

// CommitRange commits every pending line overlapping [pa, pa+size).
func (p *PersistDomain) CommitRange(pa PhysAddr, size uint64) int {
	if size == 0 {
		return 0
	}
	n := 0
	for line := LineBase(pa); line < pa+PhysAddr(size); line += LineSize {
		if _, ok := p.pending[line]; ok {
			p.CommitLine(line)
			n++
		}
	}
	return n
}

// CommitAll drains every pending line (a full persist barrier, used by the
// checkpoint boundary, orderly shutdown and tests). Lines commit in address
// order so the sequence of durability events is deterministic — commit-point
// fault injection replays runs and must observe identical event streams.
func (p *PersistDomain) CommitAll() int {
	lines := make([]PhysAddr, 0, len(p.pending))
	for line := range p.pending {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		p.CommitLine(line)
	}
	return len(lines)
}

// PendingLines reports how many NVM lines are dirty-in-cache.
func (p *PersistDomain) PendingLines() int { return len(p.pending) }

// PendingInRange reports dirty-in-cache lines overlapping [pa, pa+size).
func (p *PersistDomain) PendingInRange(pa PhysAddr, size uint64) int {
	n := 0
	end := pa + PhysAddr(size)
	for line := range p.pending {
		if line >= pa && line < end {
			n++
		}
	}
	return n
}

// Crash models power loss: all pending (non-durable) NVM data is lost and
// all DRAM contents disappear. The committed NVM image survives untouched.
func (p *PersistDomain) Crash() {
	dropped := len(p.pending)
	for line, buf := range p.pending {
		p.release(line, buf)
	}
	p.pending = make(map[PhysAddr]*[LineSize]byte)
	p.stats.Add("persist.crash_lost_lines", uint64(dropped))
	p.backing.DropRange(p.layout.DRAMBase, p.layout.DRAMSize)
	p.stats.Inc("persist.crashes")
}

// ReadCommitted reads the durable image directly, bypassing pending data.
// Only post-crash assertions in tests need it; recovery code simply uses
// Read after Crash has discarded pending lines.
func (p *PersistDomain) ReadCommitted(pa PhysAddr, dst []byte) {
	p.backing.Read(pa, dst)
}
