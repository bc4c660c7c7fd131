package main

import (
	"fmt"
	"time"

	"mperf/internal/experiments"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// paperWorkload runs what cmd/repro runs for Table 2, Figure 3 and
// Figure 4, plus the memset roof, through internal/experiments and
// the default program cache.
type paperWorkload struct {
	outputs sameOutputs
}

// paperSqlite is the sqlite sizing the pinned IPC-gap is published at.
var paperSqlite = workloads.SqliteConfig{
	ProgLen: 64, Rows: 150, Queries: 3, CellArea: 4096, TextArea: 4096, PatLen: 6,
}

const (
	paperMatmulN, paperMatmulTile = 128, 32
	// paperMemsetWords sizes the pinned memset roof (4 MiB); Figure 4
	// draws its own roof from an 8 MiB memset.
	paperMemsetWords   = 1 << 19
	figure4MemsetWords = 1 << 20
)

// paperKeys lists the programs a paper pass instantiates, bound to
// cache; the experiments compile through the default cache.
func paperKeys(cache *mperf.ProgramCache) ([]buildKey, error) {
	sqlite, err := mperf.Open("x60", "sqlite", mperf.WithSqliteConfig(paperSqlite), mperf.WithProgramCache(cache))
	if err != nil {
		return nil, err
	}
	var keys []buildKey
	keys = append(keys, buildKey{sqlite, false, false})
	for _, plat := range []string{"i5", "x60"} {
		s, err := mperf.Open(plat, "matmul", mperf.WithMatmulSize(paperMatmulN, paperMatmulTile), mperf.WithProgramCache(cache))
		if err != nil {
			return nil, err
		}
		keys = append(keys, buildKey{s, true, true})
		if plat == "i5" {
			keys = append(keys, buildKey{s, true, false})
		}
	}
	for _, words := range []int{paperMemsetWords, figure4MemsetWords} {
		s, err := mperf.Open("x60", "memset", mperf.WithMemsetWords(words), mperf.WithProgramCache(cache))
		if err != nil {
			return nil, err
		}
		keys = append(keys, buildKey{s, true, false})
	}
	return uniqueKeys(keys), nil
}

func (w *paperWorkload) setup(r *run) error {
	keys, err := paperKeys(mperf.DefaultProgramCache())
	if err != nil {
		return err
	}
	w.outputs = sameOutputs{}
	if err := r.fill(mperf.DefaultProgramCache(), keys, 30); err != nil {
		return err
	}
	private := mperf.NewProgramCache()
	keys, err = paperKeys(private)
	if err != nil {
		return err
	}
	r.measureColdWarm(private, keys, 4)
	return nil
}

func (w *paperWorkload) close() { mperf.DefaultProgramCache().Reset() }

func (w *paperWorkload) measure(r *run, budget time.Duration) error {
	rng := r.newRand(1)
	return r.repeat(budget, 3, func() error { return w.pass(r, rng.Perm(4)) })
}

// pass runs the four experiments in the given order and checks their
// outputs. Each experiment is one request, as one `repro -experiment`
// run would be. Failed checks count as failed operations; only a broken
// set-up ends the run.
func (w *paperWorkload) pass(r *run, order []int) error {
	cache := mperf.DefaultProgramCache()
	before := cache.Stats().CompileStats
	var m paperMetrics
	for _, i := range order {
		start := time.Now()
		r.op(w.experiment(i, &m))
		r.requests = append(r.requests, time.Since(start).Seconds())
	}
	r.op(checkPinned(m))
	r.op(checkNoCompiles("paper pass", statsDelta(before, cache.Stats().CompileStats)))
	return nil
}

func (w *paperWorkload) experiment(i int, m *paperMetrics) error {
	switch i {
	case 0:
		t2, err := experiments.RunTable2(paperSqlite)
		if err != nil {
			return err
		}
		m.IPCGap = t2.I5.IPC / t2.X60.IPC
		return w.outputs.check("table2", []byte(t2.Text))
	case 1:
		f3, err := experiments.RunFigure3(paperSqlite)
		if err != nil {
			return err
		}
		return w.outputs.check("figure3", []byte(f3.Text))
	case 2:
		f4, err := experiments.RunFigure4(paperMatmulN, paperMatmulTile)
		if err != nil {
			return err
		}
		m.X86GFLOPS, m.X60GFLOPS = f4.MiniperfX86.GFLOPS, f4.MiniperfX60.GFLOPS
		return w.outputs.check("figure4", []byte(f4.Text))
	default:
		bpc, err := memsetRoof()
		if err != nil {
			return err
		}
		m.MemsetBytesPerCycle = bpc
		return w.outputs.check("memset", []byte(fmt.Sprint(bpc)))
	}
}

// memsetRoof measures the X60's stored bytes per cycle, the input of
// the memory roof (paper: 3.16).
func memsetRoof() (float64, error) {
	sess, err := mperf.Open("x60", "memset", mperf.WithMemsetWords(paperMemsetWords))
	if err != nil {
		return 0, err
	}
	m, err := sess.NewOptimizedMachine(false)
	if err != nil {
		return 0, err
	}
	defer m.Release()
	return workloads.MemsetStoredBytesPerCycle(m, "buf", paperMemsetWords)
}
