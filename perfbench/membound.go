package main

import (
	"fmt"
	"time"

	"mperf/pkg/mperf"
)

// memboundWorkload profiles the memory-bound kernel suite on the X60
// and the i5 with the stat, hierarchical roofline and topdown
// collectors on a warm program cache.
type memboundWorkload struct {
	cells   []memboundCell
	outputs sameOutputs
}

type memboundCell struct {
	name string // platform/kernel
	sess *mperf.Session
}

// memboundElems sizes each kernel so that its working set is about
// 768 KiB, above the X60's 512 KiB L2, while keeping the cells of one
// pass within a small factor of each other.
var memboundElems = []struct {
	kernel string
	elems  int
	bytes  int // working set per element
}{
	{"stream_copy", 98304, 8},
	{"stream_scale", 98304, 8},
	{"stream_add", 65536, 12},
	{"gather", 49152, 16},
	{"scatter", 49152, 16},
	{"spmv", 7168, 112},
	{"ptrchase", 98304, 8},
}

var memboundPlatforms = []string{"x60", "i5"}

var memboundCollectors = mperf.MustCollectors("stat", "roofline", "topdown")

func (w *memboundWorkload) setup(r *run) error {
	cache := mperf.NewProgramCache()
	cells, keys, err := memboundCells(cache)
	if err != nil {
		return err
	}
	w.cells, w.outputs = cells, sameOutputs{}
	if err := r.fill(cache, keys, 8); err != nil {
		return err
	}
	private := mperf.NewProgramCache()
	_, keys, err = memboundCells(private)
	if err != nil {
		return err
	}
	r.measureColdWarm(private, keys, 2)
	return nil
}

// memboundCells opens every cell on cache and lists the programs they
// run: stat and topdown run the raw build, roofline the instrumented
// optimized one.
func memboundCells(cache *mperf.ProgramCache) ([]memboundCell, []buildKey, error) {
	var cells []memboundCell
	var keys []buildKey
	for _, plat := range memboundPlatforms {
		for _, k := range memboundElems {
			sess, err := mperf.Open(plat, k.kernel, mperf.WithElems(k.elems),
				mperf.WithHierarchicalRoofline(), mperf.WithProgramCache(cache))
			if err != nil {
				return nil, nil, err
			}
			cells = append(cells, memboundCell{name: plat + "/" + k.kernel, sess: sess})
			keys = append(keys, buildKey{sess, false, false}, buildKey{sess, true, true})
		}
	}
	return cells, uniqueKeys(keys), nil
}

func (w *memboundWorkload) close() { w.cells = nil }

func (w *memboundWorkload) measure(r *run, budget time.Duration) error {
	rng := r.newRand(2)
	cellTimes := map[string][]float64{}
	err := r.repeat(budget, 3, func() error {
		for _, i := range rng.Perm(len(w.cells)) {
			c := w.cells[i]
			start := time.Now()
			err := w.runCell(c)
			d := time.Since(start).Seconds()
			r.op(err)
			r.requests = append(r.requests, d)
			cellTimes[c.name] = append(cellTimes[c.name], d)
		}
		return nil
	})
	for name, ts := range cellTimes {
		r.extra["cell_ms."+name] = median(ts) * 1e3
	}
	return err
}

func (w *memboundWorkload) runCell(c memboundCell) error {
	prof, err := c.sess.Run(memboundCollectors...)
	if err != nil {
		return err
	}
	if err := checkProfile(prof); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	b, err := profileBytes(prof)
	if err != nil {
		return err
	}
	return w.outputs.check(c.name, b)
}
