package cache

import (
	"fmt"
	"sort"
	"testing"

	"kindle/internal/mem"
	"kindle/internal/sim"
)

// refLevel is the classic timestamp-LRU tag store the recency-ordered
// Level must be indistinguishable from: each way keeps an {addr, lru}
// record stamped from a unique, monotone clock, the victim is the minimum
// stamp, and invalidation swap-removes with the set's last way. It is the
// oracle for TestLevelMatchesTimestampLRU.
type refLevel struct {
	sets, ways int
	tags       []refWay
	dirtyBits  []uint32 // dirty bitmask per set (bit = way index)
	lens       []int32  // valid ways per set
	clock      uint64
}

type refWay struct {
	addr mem.PhysAddr
	lru  uint64
}

func newRefLevel(sets, ways int) *refLevel {
	return &refLevel{
		sets:      sets,
		ways:      ways,
		tags:      make([]refWay, sets*ways),
		dirtyBits: make([]uint32, sets),
		lens:      make([]int32, sets),
	}
}

func (l *refLevel) setIndex(addr mem.PhysAddr) int {
	return int((uint64(addr) / mem.LineSize) % uint64(l.sets))
}

func (l *refLevel) lookup(addr mem.PhysAddr) (si, w int) {
	si = l.setIndex(addr)
	b := si * l.ways
	for i, t := range l.tags[b : b+int(l.lens[si])] {
		if t.addr == addr {
			return si, i
		}
	}
	return si, -1
}

func (l *refLevel) setDirty(si, w int, dirty bool) {
	if dirty {
		l.dirtyBits[si] |= 1 << uint(w)
	} else {
		l.dirtyBits[si] &^= 1 << uint(w)
	}
}

func (l *refLevel) isDirty(si, w int) bool { return l.dirtyBits[si]&(1<<uint(w)) != 0 }

func (l *refLevel) Probe(addr mem.PhysAddr) bool {
	_, w := l.lookup(mem.LineBase(addr))
	return w >= 0
}

func (l *refLevel) access(addr mem.PhysAddr, write bool) bool {
	si, w := l.lookup(addr)
	if w < 0 {
		return false
	}
	l.clock++
	l.tags[si*l.ways+w].lru = l.clock
	if write {
		l.setDirty(si, w, true)
	}
	return true
}

func (l *refLevel) fill(addr mem.PhysAddr, dirty bool) (victim mem.PhysAddr, victimDirty, evicted bool) {
	si := l.setIndex(addr)
	b := si * l.ways
	n := int(l.lens[si])
	l.clock++
	if n < l.ways {
		l.tags[b+n] = refWay{addr: addr, lru: l.clock}
		l.setDirty(si, n, dirty)
		l.lens[si] = int32(n + 1)
		return 0, false, false
	}
	set := l.tags[b : b+n]
	lruIdx := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[lruIdx].lru {
			lruIdx = i
		}
	}
	victim, victimDirty = set[lruIdx].addr, l.isDirty(si, lruIdx)
	set[lruIdx] = refWay{addr: addr, lru: l.clock}
	l.setDirty(si, lruIdx, dirty)
	return victim, victimDirty, true
}

func (l *refLevel) invalidate(addr mem.PhysAddr) (present, dirty bool) {
	si, w := l.lookup(addr)
	if w < 0 {
		return false, false
	}
	b := si * l.ways
	last := int(l.lens[si]) - 1
	dirty = l.isDirty(si, w)
	l.tags[b+w] = l.tags[b+last]
	l.setDirty(si, w, l.isDirty(si, last))
	l.setDirty(si, last, false)
	l.lens[si] = int32(last)
	return true, dirty
}

func (l *refLevel) clean(addr mem.PhysAddr) (present, wasDirty bool) {
	si, w := l.lookup(addr)
	if w < 0 {
		return false, false
	}
	wasDirty = l.isDirty(si, w)
	l.setDirty(si, w, false)
	return true, wasDirty
}

func (l *refLevel) cleanToDirty(addr mem.PhysAddr) (present, prev bool) {
	si, w := l.lookup(addr)
	if w < 0 {
		return false, false
	}
	prev = l.isDirty(si, w)
	l.setDirty(si, w, true)
	return true, prev
}

func (l *refLevel) reset() {
	clear(l.lens)
	clear(l.dirtyBits)
}

// recency lists addr's set most recently used first, as "addr" or
// "addr*" for a dirty line.
func (l *refLevel) recency(addr mem.PhysAddr) []string {
	si := l.setIndex(addr)
	b := si * l.ways
	idx := make([]int, l.lens[si])
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return l.tags[b+idx[i]].lru > l.tags[b+idx[j]].lru })
	out := make([]string, len(idx))
	for i, w := range idx {
		out[i] = lineString(l.tags[b+w].addr, l.isDirty(si, w))
	}
	return out
}

// recency is refLevel.recency for the recency-ordered store.
func (l *Level) recency(addr mem.PhysAddr) []string {
	var out []string
	for _, w := range l.set(addr) {
		if w == 0 {
			break
		}
		out = append(out, lineString(mem.LineBase(mem.PhysAddr(w)), w&lineDirty != 0))
	}
	return out
}

func lineString(addr mem.PhysAddr, dirty bool) string {
	if dirty {
		return fmt.Sprintf("%#x*", uint64(addr))
	}
	return fmt.Sprintf("%#x", uint64(addr))
}

// TestLevelMatchesTimestampLRU drives Level and the timestamp-LRU refLevel
// through the same randomized access/fill/invalidate/clean/cleanToDirty/
// Probe/reset sequence and requires identical results, victims and dirty
// bits op by op, plus the same recency order and dirty bits in the touched
// set. Geometries include a direct-mapped level, a single fully
// associative set and non-power-of-two set counts.
func TestLevelMatchesTimestampLRU(t *testing.T) {
	geoms := []struct{ sets, ways int }{
		{1, 1}, {8, 1}, {1, 8}, {4, 2}, {3, 4}, {6, 8}, {5, 3}, {16, 16}, {7, 16},
	}
	for _, g := range geoms {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 0xC0FFEE} {
				checkAgainstRef(t, g.sets, g.ways, seed)
			}
		})
	}
}

func checkAgainstRef(t *testing.T, sets, ways int, seed uint64) {
	t.Helper()
	got := NewLevel(Config{Name: "x", Size: uint64(sets*ways) * mem.LineSize, Ways: ways}, sim.NewStats())
	want := newRefLevel(sets, ways)
	rng := sim.NewRNG(seed)
	// Three lines per way in the level keeps every set contended, so
	// evictions, re-fills and invalidations of the victim are all common.
	// The pool starts at line 0, whose tag word is only its valid bit.
	pool := uint64(3 * sets * ways)
	for i := 0; i < 20_000; i++ {
		addr := mem.PhysAddr(rng.Uint64n(pool) * mem.LineSize)
		op := rng.Intn(100)
		var what string
		var g, w [3]bool
		var gv, wv mem.PhysAddr
		switch {
		case op < 45:
			write := rng.Intn(3) == 0
			what = fmt.Sprintf("access(write=%v)", write)
			g[0], w[0] = got.access(addr, write), want.access(addr, write)
			if !g[0] && !w[0] {
				// A miss fills, as the hierarchy does.
				gv, g[1], g[2] = got.fill(addr, write)
				wv, w[1], w[2] = want.fill(addr, write)
			}
		case op < 60:
			if want.Probe(addr) {
				continue // fill's contract: the line is not resident
			}
			dirty := rng.Intn(2) == 0
			what = fmt.Sprintf("fill(dirty=%v)", dirty)
			gv, g[1], g[2] = got.fill(addr, dirty)
			wv, w[1], w[2] = want.fill(addr, dirty)
		case op < 72:
			what = "invalidate"
			g[0], g[1] = got.invalidate(addr)
			w[0], w[1] = want.invalidate(addr)
		case op < 82:
			what = "clean"
			g[0], g[1] = got.clean(addr)
			w[0], w[1] = want.clean(addr)
		case op < 92:
			what = "cleanToDirty"
			g[0], g[1] = got.cleanToDirty(addr)
			w[0], w[1] = want.cleanToDirty(addr)
		case op < 99:
			what = "Probe"
			// Probe takes any address in the line.
			off := mem.PhysAddr(rng.Uint64n(mem.LineSize))
			g[0], w[0] = got.Probe(addr+off), want.Probe(addr+off)
		default:
			what = "reset"
			got.reset()
			want.reset()
		}
		if g != w || gv != wv {
			t.Fatalf("%dx%d seed %d op %d: %s(%#x) = %v victim %#x, timestamp LRU %v victim %#x",
				sets, ways, seed, i, what, uint64(addr), g, uint64(gv), w, uint64(wv))
		}
		if gr, wr := got.recency(addr), want.recency(addr); fmt.Sprint(gr) != fmt.Sprint(wr) {
			t.Fatalf("%dx%d seed %d op %d: after %s(%#x) set holds %v, timestamp LRU %v",
				sets, ways, seed, i, what, uint64(addr), gr, wr)
		}
	}
}
