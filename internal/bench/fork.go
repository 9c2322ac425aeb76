package bench

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"kindle/internal/core"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/persist"
	"kindle/internal/trace"
)

// Warm-forked grid cells: the persistence grids (Fig. 4, Tables III/IV, the
// ablations) boot an identical machine + persistence stack in every cell,
// differing only in the workload that runs afterwards. With Options.WarmFork
// that shared prefix is simulated once per (scheme, interval) key and frozen
// as a copy-on-write core.Snapshot; each cell forks it instead of
// re-simulating boot + attach + spawn. Results are byte-identical either way
// — pinned by TestGridWarmForkIdentity — the fork only removes redundant
// host work. Workload images get the same treatment without a knob: RunAll
// and RunExtensions trace each one once and share it read-only (see
// imagecache.go), following the paper's "prepare once, simulate many" split.

// warmKey identifies one shared boot prefix.
type warmKey struct {
	scheme   persist.Scheme
	interval time.Duration
}

// warmCache shares frozen boot prefixes across the grid cells of a run (and,
// through RunAll, across experiments). Snapshots are immutable once stored;
// concurrent cells resume them without coordination.
type warmCache struct {
	mu    sync.Mutex
	snaps map[warmKey]*core.Snapshot
}

// get returns the (scheme, interval) boot snapshot, simulating and freezing
// it on first use.
func (c *warmCache) get(scheme persist.Scheme, interval time.Duration) (*core.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := warmKey{scheme: scheme, interval: interval}
	if s, ok := c.snaps[key]; ok {
		return s, nil
	}
	f, _, err := newPersistenceRun(scheme, interval)
	if err != nil {
		return nil, err
	}
	s := f.Snapshot(nil)
	c.snaps[key] = s
	return s, nil
}

// runCaches is what the experiments and grid cells of one run share.
type runCaches struct {
	warm   *warmCache  // frozen boot prefixes; nil unless WarmFork
	images *imageCache // traced workload images; nil outside RunAll/RunExtensions
}

// warmed attaches the shared snapshot cache when WarmFork is on. Experiments
// call it once at the top so every cell closure shares the same cache
// pointer; under RunAll and RunExtensions, shared has attached it already,
// so experiments share prefixes too.
func (o Options) warmed() Options {
	if o.WarmFork && o.caches == nil {
		o.caches = &runCaches{warm: newWarmCache()}
	}
	return o
}

func newWarmCache() *warmCache {
	return &warmCache{snaps: map[warmKey]*core.Snapshot{}}
}

// persistenceRun is the grid cells' boot path: newPersistenceRun cold, or a
// copy-on-write fork of the shared (scheme, interval) snapshot under
// Options.WarmFork.
func (o Options) persistenceRun(scheme persist.Scheme, interval time.Duration) (*core.Framework, *gemos.Process, error) {
	if o.caches == nil || o.caches.warm == nil {
		return newPersistenceRun(scheme, interval)
	}
	snap, err := o.caches.warm.get(scheme, interval)
	if err != nil {
		return nil, nil, err
	}
	f, err := core.Resume(snap)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: forking %v/%v boot prefix: %w", scheme, interval, err)
	}
	p := f.K.Current()
	if p == nil {
		return nil, nil, fmt.Errorf("bench: forked %v boot prefix has no dispatched process", scheme)
	}
	return f, p, nil
}

// replayExecMs replays img on a machine with the given configuration and
// returns the simulated execution time in milliseconds. With opt.Shards > 0
// the replay goes through core.ReplaySharded — the same code path as
// `kindle -shards` — at that shard count (warm-forking the segment boot
// under opt.WarmFork); sharded times use cold segment boundaries, so runs
// at different shard counts only compare to themselves.
func replayExecMs(img *trace.Image, cfg machine.Config, opt Options) (float64, error) {
	if opt.Shards > 0 {
		var buf bytes.Buffer
		if err := trace.EncodeV2(&buf, img, trace.StreamOptions{}); err != nil {
			return 0, err
		}
		data := buf.Bytes()
		res, err := core.ReplaySharded(func() (io.ReadSeeker, error) {
			return bytes.NewReader(data), nil
		}, core.ShardedOptions{Shards: opt.Shards, Config: &cfg, WarmFork: opt.WarmFork})
		if err != nil {
			return 0, err
		}
		opt.Progress.AddRecords(res.Records)
		return res.Cycles.Millis(), nil
	}
	f := core.New(cfg)
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		return 0, err
	}
	start := f.M.Clock.Now()
	if err := rep.Run(); err != nil {
		return 0, err
	}
	opt.Progress.AddRecords(rep.Replayed())
	return (f.M.Clock.Now() - start).Millis(), nil
}
