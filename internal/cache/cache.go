// Package cache models the on-chip cache hierarchy of a Kindle machine:
// three levels of set-associative, write-back, write-allocate caches (32 KB
// L1, 512 KB L2, 2 MB LLC per the paper's gem5 configuration) plus the
// clwb-style cache-line write-back instruction the persistence schemes rely
// on.
//
// The caches are timing + coherence-of-durability models: they track which
// line addresses are resident and dirty, charge hit/miss latencies, and
// notify the memory controller's persist domain when a dirty NVM line
// becomes durable (explicit clwb or dirty eviction). Data contents live in
// the functional backing store — a single-core machine needs no functional
// coherence in the caches themselves.
package cache

import (
	"fmt"

	"kindle/internal/mem"
	"kindle/internal/sim"
)

// Level is a single set-associative cache.
//
// The tag store is recency-ordered: set si owns the ways consecutive words
// lines[si*ways : (si+1)*ways], most recently used first. A word is the
// line's 64-byte-aligned base address with lineValid and lineDirty in the
// free low bits; valid words are packed at the front of the set and a zero
// word is an empty way. A hit moves its word to the front, a fill pushes
// the set down one slot and the last word falls out as the LRU victim, so
// there is no timestamp to keep and no victim search. Move-to-front keeps
// exactly the total order a unique, monotone LRU clock would, which makes
// hits, victims and write-backs those of classic timestamp LRU.
type Level struct {
	name    string
	sets    int
	ways    int
	latency sim.Cycles

	lines []uint64 // sets*ways words, each set MRU first

	setMask uint64 // sets-1 when sets is a power of two, else 0 (use modulo)

	evicts *sim.Counter // "cache.<name>.evict", resolved once
}

// Tag-word flag bits; line addresses are LineSize-aligned, so the low bits
// of a word are free.
const (
	lineValid uint64 = 1 << 0
	lineDirty uint64 = 1 << 1
)

// Config describes one cache level.
type Config struct {
	Name    string
	Size    uint64 // bytes
	Ways    int
	Latency sim.Cycles // access (hit) latency
}

// NewLevel builds one cache level. Size must be a multiple of
// Ways*LineSize.
func NewLevel(cfg Config, stats *sim.Stats) *Level {
	linesTotal := int(cfg.Size / mem.LineSize)
	if cfg.Ways <= 0 || linesTotal == 0 || linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry for %s: %d lines, %d ways", cfg.Name, linesTotal, cfg.Ways))
	}
	sets := linesTotal / cfg.Ways
	l := &Level{
		name:    cfg.Name,
		sets:    sets,
		ways:    cfg.Ways,
		latency: cfg.Latency,
		lines:   make([]uint64, linesTotal),
		evicts:  stats.Counter("cache." + cfg.Name + ".evict"),
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	}
	return l
}

// set returns the ways of the set addr maps to, MRU first.
func (l *Level) set(addr mem.PhysAddr) []uint64 {
	line := uint64(addr) / mem.LineSize
	var si uint64
	if l.setMask != 0 || l.sets == 1 {
		si = line & l.setMask
	} else {
		si = line % uint64(l.sets)
	}
	b := int(si) * l.ways
	return l.lines[b : b+l.ways : b+l.ways]
}

// find returns the way holding addr in set, or -1. Empty ways are zero and
// never match, so the scan needs no separate stop at the first of them.
func find(set []uint64, addr mem.PhysAddr) int {
	key := uint64(addr) | lineValid
	for i, w := range set {
		if w&^lineDirty == key {
			return i
		}
	}
	return -1
}

// Probe reports residency without touching LRU state or stats.
func (l *Level) Probe(addr mem.PhysAddr) bool {
	addr = mem.LineBase(addr)
	return find(l.set(addr), addr) >= 0
}

// access touches addr; returns hit. A hit moves the line to the front of
// its set and marks it dirty when write.
func (l *Level) access(addr mem.PhysAddr, write bool) bool {
	set := l.set(addr)
	if set[0]&^lineDirty == uint64(addr)|lineValid {
		if write {
			set[0] |= lineDirty
		}
		return true
	}
	i := find(set, addr)
	if i < 0 {
		return false
	}
	w := set[i]
	if write {
		w |= lineDirty
	}
	copy(set[1:i+1], set[:i])
	set[0] = w
	return true
}

// fill inserts addr, which must not be resident, as the MRU line. When the
// set was full the LRU line falls out and is returned with its dirty bit.
func (l *Level) fill(addr mem.PhysAddr, dirty bool) (victim mem.PhysAddr, victimDirty, evicted bool) {
	set := l.set(addr)
	last := set[len(set)-1]
	copy(set[1:], set)
	w := uint64(addr) | lineValid
	if dirty {
		w |= lineDirty
	}
	set[0] = w
	if last == 0 {
		return 0, false, false
	}
	return mem.LineBase(mem.PhysAddr(last)), last&lineDirty != 0, true
}

// invalidate removes addr, closing the gap so the remaining lines keep
// their recency order, and reports whether it was present and dirty.
func (l *Level) invalidate(addr mem.PhysAddr) (present, dirty bool) {
	set := l.set(addr)
	i := find(set, addr)
	if i < 0 {
		return false, false
	}
	dirty = set[i]&lineDirty != 0
	copy(set[i:], set[i+1:])
	set[len(set)-1] = 0
	return true, dirty
}

// clean clears the dirty bit of addr if resident; reports prior dirtiness.
func (l *Level) clean(addr mem.PhysAddr) (present, wasDirty bool) {
	set := l.set(addr)
	i := find(set, addr)
	if i < 0 {
		return false, false
	}
	wasDirty = set[i]&lineDirty != 0
	set[i] &^= lineDirty
	return true, wasDirty
}

// cleanToDirty marks addr dirty if resident; reports prior dirtiness.
func (l *Level) cleanToDirty(addr mem.PhysAddr) (present, prev bool) {
	set := l.set(addr)
	i := find(set, addr)
	if i < 0 {
		return false, false
	}
	prev = set[i]&lineDirty != 0
	set[i] |= lineDirty
	return true, prev
}

// reset empties the level, keeping the backing array.
func (l *Level) reset() { clear(l.lines) }
