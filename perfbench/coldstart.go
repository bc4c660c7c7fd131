package main

import (
	"math/rand/v2"
	"os"
	"time"

	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// coldstartWorkload compiles every plan key the collectors use into
// an empty program cache with an artifact store, then loads all of
// them again from the store into an empty memory tier: the cost of a
// first start and of a restart over a populated store.
type coldstartWorkload struct {
	// rng draws each pass's key order. The warm phase's time depends on
	// the order (which loads a collection interrupts), so every pass
	// takes a new one and a run averages over many.
	rng *rand.Rand
}

// coldstartPlatforms are the platforms whose optimized-instrumented
// builds the keys cover; with the raw build of every catalog workload
// that is three keys per workload.
var coldstartPlatforms = []string{"x60", "i5"}

// coldstartKeys opens the catalog at default sizes on a fresh cache.
func coldstartKeys(cache *mperf.ProgramCache) ([]buildKey, error) {
	var keys []buildKey
	for _, name := range workloads.Names() {
		for i, plat := range coldstartPlatforms {
			sess, err := mperf.Open(plat, name, mperf.WithProgramCache(cache))
			if err != nil {
				return nil, err
			}
			if i == 0 {
				keys = append(keys, buildKey{sess, false, false})
			}
			keys = append(keys, buildKey{sess, true, true})
		}
	}
	return keys, nil
}

func (w *coldstartWorkload) setup(r *run) error {
	w.rng = r.newRand(3)
	// One unrecorded pass warms the allocator and the page cache.
	_, _, err := w.pass(r, nil)
	return err
}

func (w *coldstartWorkload) close() {}

func (w *coldstartWorkload) measure(r *run, budget time.Duration) error {
	return r.repeat(budget, 3, func() error {
		cold, warm, err := w.pass(r, func(d time.Duration) { r.requests = append(r.requests, d.Seconds()) })
		if err == nil {
			r.cold = append(r.cold, cold.Seconds())
			r.warm = append(r.warm, warm.Seconds())
		}
		return nil
	})
}

// pass runs one cold phase and one warm phase over all keys in a fresh
// cache and store, and removes the store afterwards. The pass is one
// operation: it fails when a key does not compile or the warm phase
// does not serve every key from the store.
func (w *coldstartWorkload) pass(r *run, onWarm func(time.Duration)) (cold, warm time.Duration, err error) {
	cache := mperf.NewProgramCache()
	keys, err := coldstartKeys(cache)
	if err != nil {
		return 0, 0, err
	}
	ordered := make([]buildKey, len(keys))
	for i, j := range w.rng.Perm(len(keys)) {
		ordered[i] = keys[j]
	}
	dir, err := r.storeDir()
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cold, warm, err = coldThenWarm(cache, dir, ordered, onWarm)
	r.op(err)
	return cold, warm, err
}
