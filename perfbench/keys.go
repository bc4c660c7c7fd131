package main

import (
	"fmt"
	"os"
	"time"

	"mperf/pkg/mperf"
)

// buildKey is one program a workload compiles: a session's build
// flavor. Sessions are bound to their program cache at Open.
type buildKey struct {
	sess                 *mperf.Session
	optimize, instrument bool
}

func (k buildKey) String() string { return k.sess.ProgramKey(k.optimize, k.instrument).String() }

// uniqueKeys drops builds that share a plan key (raw builds are
// platform-portable), keeping the first.
func uniqueKeys(keys []buildKey) []buildKey {
	seen := map[string]bool{}
	var out []buildKey
	for _, k := range keys {
		if s := k.String(); !seen[s] {
			seen[s] = true
			out = append(out, k)
		}
	}
	return out
}

// storeDir returns a fresh, empty artifact directory under the run's
// scratch directory.
func (r *run) storeDir() (string, error) {
	return os.MkdirTemp(r.dir, "store-")
}

// coldThenWarm empties cache, attaches a fresh artifact store, compiles
// every key into it (the cold phase) and then loads every key back from
// the store with the memory tier empty (the warm phase). It leaves the
// cache warm in memory and the store directory in place; onWarm, when
// set, receives each warm load's latency.
func coldThenWarm(cache *mperf.ProgramCache, dir string, keys []buildKey, onWarm func(time.Duration)) (cold, warm time.Duration, err error) {
	cache.Reset()
	if err := cache.SetArtifactDir(dir); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, k := range keys {
		if _, err := k.sess.Program(k.optimize, k.instrument); err != nil {
			return 0, 0, fmt.Errorf("cold compile %s: %w", k, err)
		}
	}
	cold = time.Since(start)

	cache.ResetMemory()
	before := cache.Stats().CompileStats
	start = time.Now()
	for _, k := range keys {
		t0 := time.Now()
		if _, err := k.sess.Program(k.optimize, k.instrument); err != nil {
			return 0, 0, fmt.Errorf("warm load %s: %w", k, err)
		}
		if onWarm != nil {
			onWarm(time.Since(t0))
		}
	}
	warm = time.Since(start)
	return cold, warm, checkWarmStart(statsDelta(before, cache.Stats().CompileStats), len(keys))
}

// fill runs coldThenWarm cycles times on the cache the passes use,
// leaving it warm with the last cycle's store attached. The cycles are
// set-up: they prime the cache, the store and the allocator, and their
// time is part of setup_s only.
func (r *run) fill(cache *mperf.ProgramCache, keys []buildKey, cycles int) error {
	var prev string
	for i := 0; i < cycles; i++ {
		dir, err := r.storeDir()
		if err != nil {
			return err
		}
		_, _, err = coldThenWarm(cache, dir, keys, nil)
		r.op(err)
		if err != nil {
			return err
		}
		if prev != "" {
			os.RemoveAll(prev)
		}
		prev = dir
	}
	return nil
}

// measureColdWarm makes r.repeat run perPass cold/warm cycles of keys
// after every pass, outside the pass's time, and record them. The keys
// must be bound to a cache of their own, so the passes keep their warm
// programs; spreading the cycles over the run keeps a burst of host
// noise at start-up from deciding cold_compile_ms and warm_start_ms.
func (r *run) measureColdWarm(cache *mperf.ProgramCache, keys []buildKey, perPass int) {
	r.betweenPasses = func() error {
		for i := 0; i < perPass; i++ {
			dir, err := r.storeDir()
			if err != nil {
				return err
			}
			cold, warm, err := coldThenWarm(cache, dir, keys, nil)
			r.op(err)
			if err == nil {
				r.cold = append(r.cold, cold.Seconds())
				r.warm = append(r.warm, warm.Seconds())
			}
			os.RemoveAll(dir)
		}
		return nil
	}
}
