package cache

import "fmt"

// Snapshot mirrors of the cache tag state, for machine forks. The mirrors
// are plain data (gob-encodable); geometry (sets/ways/latency) is not
// captured — it is derived from the machine Config the restoring side
// rebuilds with, and RestoreState rejects a mismatch.

// LevelState mirrors one cache level's tag store: the Level's words, set
// by set, most recently used first.
type LevelState struct {
	Lines []uint64
}

// HierarchyState mirrors the full three-level stack.
type HierarchyState struct {
	L1, L2, LLC LevelState
}

func (l *Level) captureState() LevelState {
	return LevelState{Lines: append([]uint64(nil), l.lines...)}
}

// restoreState rejects a capture whose length does not match the geometry,
// including one in an older format that decodes to no lines at all.
func (l *Level) restoreState(st LevelState) error {
	if len(st.Lines) != len(l.lines) {
		return fmt.Errorf("cache: %s geometry mismatch: %d/%d lines", l.name, len(st.Lines), len(l.lines))
	}
	copy(l.lines, st.Lines)
	return nil
}

// CaptureState copies the hierarchy's mutable tag state.
func (h *Hierarchy) CaptureState() HierarchyState {
	return HierarchyState{
		L1:  h.l1.captureState(),
		L2:  h.l2.captureState(),
		LLC: h.llc.captureState(),
	}
}

// RestoreState overwrites the hierarchy's tag state from a capture taken
// on an identically configured hierarchy.
func (h *Hierarchy) RestoreState(st HierarchyState) error {
	if err := h.l1.restoreState(st.L1); err != nil {
		return err
	}
	if err := h.l2.restoreState(st.L2); err != nil {
		return err
	}
	return h.llc.restoreState(st.LLC)
}
