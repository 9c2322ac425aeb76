package cache

import (
	"bytes"
	"encoding/gob"
	"slices"
	"strings"
	"testing"

	"kindle/internal/mem"
)

func TestCaptureRestoreRoundTrip(t *testing.T) {
	src, _, _, _ := newTestHier(t)
	for i := 0; i < 5000; i++ {
		src.Access(mem.PhysAddr(i*7%3000)*mem.LineSize, i%3 == 0)
	}
	st := src.CaptureState()
	dst, _, _, _ := newTestHier(t)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct{ a, b *Level }{{src.l1, dst.l1}, {src.l2, dst.l2}, {src.llc, dst.llc}} {
		if !slices.Equal(l.a.lines, l.b.lines) {
			t.Fatalf("%s: restored tag store differs from the captured one", l.a.name)
		}
	}
	// The capture is a copy: later traffic on the source leaves it alone.
	src.Reset()
	if slices.Equal(st.L1.Lines, src.l1.lines) {
		t.Fatal("capture aliases the live tag store")
	}
}

// TestRestoreRejectsOldFormat decodes a snapshot written by the earlier
// timestamp-LRU tag store. Gob matches fields by name, so the nested
// levels decode without error to empty Lines; restoring them must fail
// on the geometry check rather than resume with empty caches.
func TestRestoreRejectsOldFormat(t *testing.T) {
	type oldWay struct{ Addr, LRU uint64 }
	type oldLevel struct {
		Tags  []oldWay
		Dirty []uint32
		Lens  []int32
		MRU   []int32
		Clock uint64
	}
	type oldHierarchy struct{ L1, L2, LLC oldLevel }
	old := oldLevel{
		Tags:  []oldWay{{Addr: 64, LRU: 1}},
		Dirty: []uint32{1},
		Lens:  []int32{1},
		MRU:   []int32{0},
		Clock: 1,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(oldHierarchy{L1: old, L2: old, LLC: old}); err != nil {
		t.Fatal(err)
	}
	var st HierarchyState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatalf("old-format decode failed before reaching the geometry check: %v", err)
	}
	h, _, _, _ := newTestHier(t)
	err := h.RestoreState(st)
	if err == nil || !strings.Contains(err.Error(), "geometry mismatch") {
		t.Fatalf("RestoreState(old format) = %v, want a geometry mismatch", err)
	}
}
