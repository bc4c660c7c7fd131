// Package mperf_test holds the benchmark harness: one testing.B bench
// per table and figure of the paper's evaluation, plus ablation
// benches for the design choices DESIGN.md calls out. Each bench
// reports the reproduced headline numbers as custom metrics, so
// `go test -bench=. -benchmem` regenerates the whole evaluation.
package mperf_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mperf/internal/experiments"
	"mperf/internal/ir"
	"mperf/internal/isa"
	"mperf/internal/kernel"
	"mperf/internal/miniperf"
	"mperf/internal/passes"
	"mperf/internal/platform"
	"mperf/internal/roofline"
	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
	"mperf/pkg/mperfd"
	"mperf/pkg/mperfd/client"
)

func benchSqliteConfig() workloads.SqliteConfig {
	return workloads.SqliteConfig{
		ProgLen: 64, Rows: 150, Queries: 3,
		CellArea: 4096, TextArea: 4096, PatLen: 6,
	}
}

// BenchmarkTable1_PlatformSurvey regenerates the capability table.
func BenchmarkTable1_PlatformSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1()
		if len(res.Platforms) != 3 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkTable2_SqliteHotspots regenerates the hotspot/IPC study.
// Paper: X60 IPC 0.86, i5 IPC 3.38; top functions sqlite3VdbeExec,
// patternCompare, sqlite3BtreeParseCellPtr.
func BenchmarkTable2_SqliteHotspots(b *testing.B) {
	var last *experiments.Table2
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(benchSqliteConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.X60.IPC, "x60-IPC")
	b.ReportMetric(last.I5.IPC, "i5-IPC")
	b.ReportMetric(last.I5.IPC/last.X60.IPC, "IPC-gap")
}

// BenchmarkFigure3_FlameGraphs regenerates the four flame graphs.
func BenchmarkFigure3_FlameGraphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure3(benchSqliteConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Graphs) != 4 {
			b.Fatal("figure 3 incomplete")
		}
	}
}

// BenchmarkFigure4_Roofline regenerates the roofline comparison.
// Paper: miniperf 34.06 GFLOP/s vs self-reported 33.0 vs Advisor 47.72
// on x86; 1.58 GFLOP/s on the X60 against 25.6/4.7 roofs.
func BenchmarkFigure4_Roofline(b *testing.B) {
	var last *experiments.Figure4
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure4(128, 32)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MiniperfX86.GFLOPS, "x86-miniperf-GFLOPS")
	b.ReportMetric(last.SelfReported.GFLOPS, "x86-self-GFLOPS")
	b.ReportMetric(last.AdvisorLike.GFLOPS, "x86-advisor-GFLOPS")
	b.ReportMetric(last.MiniperfX60.GFLOPS, "x60-miniperf-GFLOPS")
}

// BenchmarkMemsetBandwidth reproduces the §5.2 memory-roof input:
// stored bytes/cycle of a streaming memset on the X60 (paper: 3.16).
func BenchmarkMemsetBandwidth(b *testing.B) {
	var bpc float64
	for i := 0; i < b.N; i++ {
		mod := ir.NewModule("memset")
		workloads.BuildMemset(mod)
		const words = 1 << 19
		mod.NewGlobal("buf", ir.I64, words)
		if _, err := passes.RunPipeline(mod, passes.PipelineOptions{
			Profile: passes.VecConservative, Lanes: 8,
		}); err != nil {
			b.Fatal(err)
		}
		m, err := vm.New(platform.X60(), mod)
		if err != nil {
			b.Fatal(err)
		}
		bpc, err = workloads.MemsetStoredBytesPerCycle(m, "buf", words)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bpc, "bytes/cycle")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationGrouping contrasts sample yield with and without
// the X60 grouping workaround: the direct approach cannot even open
// the event, the grouped approach streams samples.
func BenchmarkAblationGrouping(b *testing.B) {
	var direct, grouped float64
	for i := 0; i < b.N; i++ {
		cfg := benchSqliteConfig()
		mod := ir.NewModule("sqlite3")
		if _, err := workloads.BuildSqliteSim(mod, cfg); err != nil {
			b.Fatal(err)
		}
		m, err := vm.New(platform.X60(), mod)
		if err != nil {
			b.Fatal(err)
		}
		if err := workloads.SeedSqlite(m, cfg); err != nil {
			b.Fatal(err)
		}
		// Direct: fails at open, zero samples.
		if _, err := m.Kernel().PerfEventOpen(kernel.EventAttr{
			Label: "cycles", Config: isa.EventCycles,
			SamplePeriod: 100_000, SampleType: kernel.SampleIP,
		}, -1); err == nil {
			b.Fatal("direct sampling unexpectedly worked on X60")
		}
		direct = 0
		// Workaround: full stream.
		tool, err := miniperf.Attach(m)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := tool.Record(miniperf.RecordOptions{FreqHz: 20_000}, func() error {
			_, err := workloads.RunSqlite(m, cfg)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		grouped = float64(len(rec.Samples))
	}
	b.ReportMetric(direct, "samples-direct")
	b.ReportMetric(grouped, "samples-grouped")
}

// BenchmarkAblationTwoPhase quantifies why the two-phase workflow
// exists (§4.4): timing taken from the instrumented run itself is
// slowed by counting overhead; the two-phase estimate uses baseline
// timing with instrumented counts.
func BenchmarkAblationTwoPhase(b *testing.B) {
	var twoPhase, singleRun, overhead float64
	for i := 0; i < b.N; i++ {
		const n, tile = 96, 32
		mod := ir.NewModule("matmul")
		if _, err := workloads.BuildMatmul(mod, n, tile); err != nil {
			b.Fatal(err)
		}
		if _, err := passes.RunPipeline(mod, passes.PipelineOptions{
			Profile: passes.VecConservative, Lanes: 8, Interleave: true, Instrument: true,
		}); err != nil {
			b.Fatal(err)
		}
		m, err := vm.New(platform.X60(), mod)
		if err != nil {
			b.Fatal(err)
		}
		if err := workloads.SeedMatmul(m, n); err != nil {
			b.Fatal(err)
		}
		aArg, _ := m.GlobalAddr("A")
		bArg, _ := m.GlobalAddr("B")
		cArg, _ := m.GlobalAddr("C")
		res, err := roofline.RunTwoPhase(m, "matmul", []uint64{aArg, bArg, cArg, uint64(n)})
		if err != nil {
			b.Fatal(err)
		}
		lr, ok := res.LoopByFunc("matmul")
		if !ok {
			b.Fatal("region missing")
		}
		twoPhase = lr.GFLOPS
		// Single-run estimate: counts and time both from phase 2.
		instSec := float64(lr.InstrumentedCycles) / m.FreqHz()
		singleRun = float64(lr.Counts.FPOps) / instSec / 1e9
		overhead = lr.OverheadRatio()
	}
	b.ReportMetric(twoPhase, "GFLOPS-two-phase")
	b.ReportMetric(singleRun, "GFLOPS-single-run")
	b.ReportMetric(overhead, "instr-overhead-x")
}

// BenchmarkAblationFlopSource contrasts IR-level FLOP counting with
// the PMU counter family that overcounts replayed work — the Fig 4
// Advisor-vs-miniperf gap isolated.
func BenchmarkAblationFlopSource(b *testing.B) {
	var irGF, pmuGF float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure4(96, 32)
		if err != nil {
			b.Fatal(err)
		}
		irGF = res.MiniperfX86.GFLOPS
		pmuGF = res.AdvisorLike.GFLOPS
	}
	b.ReportMetric(irGF, "GFLOPS-IR")
	b.ReportMetric(pmuGF, "GFLOPS-PMU")
	b.ReportMetric(pmuGF/irGF, "overcount-x")
}

// BenchmarkAblationVectorX60 answers the paper's "opportunities for
// compiler developers" remark: what the X60 would achieve if its RVV
// backend vectorized like the AVX2 one (aggressive profile on the X60
// pipeline model).
func BenchmarkAblationVectorX60(b *testing.B) {
	run := func(profile passes.VectorizeProfile) float64 {
		const n, tile = 96, 32
		mod := ir.NewModule("matmul")
		if _, err := workloads.BuildMatmul(mod, n, tile); err != nil {
			b.Fatal(err)
		}
		if _, err := passes.RunPipeline(mod, passes.PipelineOptions{
			Profile: profile, Lanes: 8, Interleave: true,
		}); err != nil {
			b.Fatal(err)
		}
		m, err := vm.New(platform.X60(), mod)
		if err != nil {
			b.Fatal(err)
		}
		if err := workloads.SeedMatmul(m, n); err != nil {
			b.Fatal(err)
		}
		start := m.Cycles()
		if err := workloads.RunMatmul(m, n); err != nil {
			b.Fatal(err)
		}
		sec := float64(m.Cycles()-start) / m.FreqHz()
		return float64(workloads.MatmulFLOPs(n)) / sec / 1e9
	}
	var scalar, vector float64
	for i := 0; i < b.N; i++ {
		scalar = run(passes.VecConservative)
		vector = run(passes.VecAggressive)
	}
	b.ReportMetric(scalar, "GFLOPS-rvv-today")
	b.ReportMetric(vector, "GFLOPS-rvv-mature")
	b.ReportMetric(vector/scalar, "speedup-x")
}

// BenchmarkAblationStrengthReduce isolates the codegen-quality passes
// (LSR + DCE + scheduling) the calibration depends on.
func BenchmarkAblationStrengthReduce(b *testing.B) {
	run := func(disable bool) float64 {
		const n, tile = 96, 32
		mod := ir.NewModule("matmul")
		if _, err := workloads.BuildMatmul(mod, n, tile); err != nil {
			b.Fatal(err)
		}
		if _, err := passes.RunPipeline(mod, passes.PipelineOptions{
			Profile: passes.VecConservative, Lanes: 8, Interleave: true,
			NoStrengthReduce: disable,
		}); err != nil {
			b.Fatal(err)
		}
		m, err := vm.New(platform.X60(), mod)
		if err != nil {
			b.Fatal(err)
		}
		if err := workloads.SeedMatmul(m, n); err != nil {
			b.Fatal(err)
		}
		start := m.Cycles()
		if err := workloads.RunMatmul(m, n); err != nil {
			b.Fatal(err)
		}
		sec := float64(m.Cycles()-start) / m.FreqHz()
		return float64(workloads.MatmulFLOPs(n)) / sec / 1e9
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		without = run(true)
		with = run(false)
	}
	b.ReportMetric(without, "GFLOPS-naive-codegen")
	b.ReportMetric(with, "GFLOPS-O3-codegen")
}

// BenchmarkAblationSampleFreq checks hotspot-share stability across
// sampling rates (profilers must not change their answer with -F).
func BenchmarkAblationSampleFreq(b *testing.B) {
	share := func(freq uint64) float64 {
		cfg := benchSqliteConfig()
		mod := ir.NewModule("sqlite3")
		if _, err := workloads.BuildSqliteSim(mod, cfg); err != nil {
			b.Fatal(err)
		}
		m, err := vm.New(platform.X60(), mod)
		if err != nil {
			b.Fatal(err)
		}
		if err := workloads.SeedSqlite(m, cfg); err != nil {
			b.Fatal(err)
		}
		tool, err := miniperf.Attach(m)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := tool.Record(miniperf.RecordOptions{FreqHz: freq}, func() error {
			_, err := workloads.RunSqlite(m, cfg)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range rec.Hotspots() {
			if h.Function == "sqlite3VdbeExec" {
				return h.TotalPct
			}
		}
		return 0
	}
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		lo = share(5_000)
		hi = share(40_000)
	}
	b.ReportMetric(lo, "vdbe-share-5kHz-%")
	b.ReportMetric(hi, "vdbe-share-40kHz-%")
}

// --- Program-cache trajectory benches (PR 3) ---

// BenchmarkCompileProgram is the cold path the program cache
// eliminates: build the sqlite module and compile it into a Program
// from scratch every iteration (what every machine construction paid
// before the compile-once split).
func BenchmarkCompileProgram(b *testing.B) {
	cfg := benchSqliteConfig()
	for i := 0; i < b.N; i++ {
		spec, err := workloads.Lookup("sqlite", workloads.Params{Sqlite: &cfg})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spec.BuildProgram(platform.X60(), false, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstantiate is the warm path: machines instantiated off one
// shared compiled Program (memory copy plus hart construction, no
// recompilation). warm-speedup-x reports a one-shot cold compile
// against the steady-state per-instantiation cost.
func BenchmarkInstantiate(b *testing.B) {
	cfg := benchSqliteConfig()
	spec, err := workloads.Lookup("sqlite", workloads.Params{Sqlite: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	coldStart := time.Now()
	prog, err := spec.BuildProgram(platform.X60(), false, false)
	if err != nil {
		b.Fatal(err)
	}
	cold := time.Since(coldStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.NewMachine(prog, platform.X60())
		m.Release()
	}
	if warm := b.Elapsed() / time.Duration(b.N); warm > 0 {
		b.ReportMetric(float64(cold)/float64(warm), "warm-speedup-x")
	}
}

// BenchmarkMatrixWarm sweeps streaming kernels over every platform
// with a pre-warmed program cache: the steady-state serving shape,
// where every cell is instantiation and simulation only. The bench
// fails if any warm cell recompiles; cache-hit-rate is asserted > 0 by
// the CI smoke step.
func BenchmarkMatrixWarm(b *testing.B) {
	cache := mperf.NewProgramCache()
	spec := mperf.MatrixSpec{
		Workloads:  []string{"dot", "triad", "stencil"},
		Collectors: []string{"stat"},
		Options: []mperf.Option{
			mperf.WithProgramCache(cache),
			mperf.WithElems(1 << 12),
			mperf.WithStatEvents("cycles", "instructions", "branches", "branch-misses"),
		},
	}
	if _, err := mperf.RunMatrix(spec); err != nil {
		b.Fatal(err) // cold sweep fills the cache
	}
	b.ResetTimer()
	var warm mperf.CompileStats
	for i := 0; i < b.N; i++ {
		res, err := mperf.RunMatrix(spec)
		if err != nil {
			b.Fatal(err)
		}
		warm = mperf.CompileStats{}
		for _, cell := range res.Cells {
			if cell.Error != "" {
				b.Fatal(cell.Error)
			}
			if cs := cell.Profile.CompileStats; cs != nil {
				warm.Compiled += cs.Compiled
				warm.CacheHits += cs.CacheHits
			}
		}
		if warm.Compiled != 0 {
			b.Fatalf("warm sweep recompiled %d programs", warm.Compiled)
		}
	}
	b.ReportMetric(warm.HitRate(), "cache-hit-rate")
	b.ReportMetric(float64(warm.CacheHits), "cache-hits")
}

// --- Daemon benches (PR 6) ---

// BenchmarkDaemonConcurrentProfiles load-tests mperfd end to end: a
// pool of 200 concurrent HTTP clients drives profile requests through
// the daemon's bounded queue and worker pool against a pre-warmed
// program cache. Reports serving throughput and the cache hit rate —
// the two numbers that justify running miniperf as a service.
func BenchmarkDaemonConcurrentProfiles(b *testing.B) {
	cache := mperf.NewProgramCache()
	srv := mperfd.New(mperfd.Config{Workers: 4, QueueDepth: 512, Cache: cache})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	platforms := []string{"x60", "i5"}
	request := func(i int) mperfd.ProfileRequest {
		return mperfd.ProfileRequest{
			Platform:   platforms[i%len(platforms)],
			Workload:   "dot",
			Collectors: []string{"stat"},
			Sizing:     mperfd.Sizing{Elems: 2048},
		}
	}
	for i := range platforms { // warm wave pays the compiles
		if _, err := c.Profile(context.Background(), request(i), nil); err != nil {
			b.Fatal(err)
		}
	}

	const clients = 200
	b.ResetTimer()
	start := time.Now()
	work := make(chan int)
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if _, err := c.Profile(context.Background(), request(i), nil); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	if st := srv.Stats(); st.Rejected != 0 {
		b.Fatalf("queue rejected %d requests", st.Rejected)
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "profiles/s")
	b.ReportMetric(cache.Stats().HitRate(), "cache-hit-rate")
}

// BenchmarkSqliteInterpreter is a plain end-to-end throughput bench of
// the simulation stack itself (simulated instructions per host second).
func BenchmarkSqliteInterpreter(b *testing.B) {
	cfg := benchSqliteConfig()
	for i := 0; i < b.N; i++ {
		mod := ir.NewModule("sqlite3")
		if _, err := workloads.BuildSqliteSim(mod, cfg); err != nil {
			b.Fatal(err)
		}
		m, err := vm.New(platform.X60(), mod)
		if err != nil {
			b.Fatal(err)
		}
		if err := workloads.SeedSqlite(m, cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := workloads.RunSqlite(m, cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Steps()), "sim-instrs")
	}
}

// benchmarkSuperblock times repeated quiet runs of one workload's
// entry function on a single machine — the hot-loop dispatch cost
// itself, no collectors, no sampling.
func benchmarkSuperblock(b *testing.B, platName, workload string, opts ...mperf.Option) {
	opts = append(opts, mperf.WithProgramCache(mperf.NewProgramCache()))
	sess, err := mperf.Open(platName, workload, opts...)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sess.NewOptimizedMachine(false)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Release()
	spec := sess.Workload()
	args, err := spec.Args(m)
	if err != nil {
		b.Fatal(err)
	}
	simInstrs := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := m.Steps()
		if _, err := m.Run(spec.Entry, args...); err != nil {
			b.Fatal(err)
		}
		simInstrs = m.Steps() - before
	}
	b.ReportMetric(float64(simInstrs)/float64(b.Elapsed().Nanoseconds()/int64(b.N))*1e3, "sim-MIPS")
}

// BenchmarkSuperblockMatmul isolates the superblock/kernel win on the
// paper's tiled matmul hot loop (scalar f32 FMA kernel on the X60).
func BenchmarkSuperblockMatmul(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		benchmarkSuperblock(b, "x60", "matmul", mperf.WithMatmulSize(96, 32))
	})
}

// BenchmarkSuperblockTriad does the same for the vectorized streaming
// triad loop (vector loads/stores + splat + FMA).
func BenchmarkSuperblockTriad(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		benchmarkSuperblock(b, "i5", "triad", mperf.WithElems(1<<16))
	})
}

// BenchmarkSuperblockSqlite covers the branchy non-kernel case: the
// sqlite bytecode interpreter fuses regions but matches no specialized
// loop kernels, so this pins the generic superblock path's cost.
func BenchmarkSuperblockSqlite(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		benchmarkSuperblock(b, "x60", "sqlite",
			mperf.WithSqliteConfig(workloads.SqliteConfig{
				ProgLen: 64, Rows: 80, Queries: 2, CellArea: 2048, TextArea: 2048, PatLen: 6,
			}))
	})
}

// --- Artifact store benches (PR 9) ---

// BenchmarkColdVsWarmStart measures the tentpole claim of the
// persistent artifact store: loading a serialized program (binary IR
// decode + verify + re-plan + image install, no workload build, no
// vectorizer pipeline, no Seed execution) against the cold
// BuildProgram pipeline for the same plan key. Reports the cold
// compile time and the cold/warm ratio, and fails if the warm path
// compiles anything or the speedup drops below the required 5x.
func BenchmarkColdVsWarmStart(b *testing.B) {
	params := workloads.Params{Sqlite: &workloads.SqliteConfig{
		ProgLen: 64, Rows: 150, Queries: 3, CellArea: 4096, TextArea: 4096, PatLen: 6,
	}}
	spec, err := workloads.Lookup("sqlite", params)
	if err != nil {
		b.Fatal(err)
	}
	build := func() (*vm.Program, error) {
		return spec.BuildProgram(platform.X60(), false, false)
	}

	const coldIters = 5
	coldStart := time.Now()
	for i := 0; i < coldIters; i++ {
		if _, err := build(); err != nil {
			b.Fatal(err)
		}
	}
	cold := time.Since(coldStart) / coldIters

	cache := mperf.NewProgramCache()
	if err := cache.SetArtifactDir(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	key := mperf.ProgramKey{Workload: "sqlite", Params: params.Fingerprint(), Codegen: vm.CodegenTag()}
	if _, _, err := cache.Get(key, build); err != nil {
		b.Fatal(err) // populates the store
	}
	// One untimed warm-start so the timed loop never pays first-touch
	// costs (page cache, allocator growth) in its first iteration.
	cache.ResetMemory()
	if _, src, err := cache.Get(key, build); err != nil || src != mperf.SourceDisk {
		b.Fatalf("store warm-up failed: src=%v err=%v", src, err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.ResetMemory() // a fresh process pointed at the store
		_, src, err := cache.Get(key, func() (*vm.Program, error) {
			return nil, fmt.Errorf("warm start fell back to compiling")
		})
		if err != nil {
			b.Fatal(err)
		}
		if src != mperf.SourceDisk {
			b.Fatalf("warm start served from %v, want the disk store", src)
		}
	}
	warm := b.Elapsed() / time.Duration(b.N)
	if warm <= 0 {
		return
	}
	speedup := float64(cold) / float64(warm)
	b.ReportMetric(float64(cold.Nanoseconds()), "cold-compile-ns")
	b.ReportMetric(speedup, "cold-vs-warm-x")
	// The hard floor only applies to measured runs: the framework's
	// N=1 gauge invocation times a single load, which is all noise.
	if b.N >= 5 && speedup < 5 {
		b.Fatalf("artifact load is only %.1fx faster than a cold compile, want >= 5x", speedup)
	}
}

// BenchmarkShardedMatrix measures the sweep engine end to end: each
// iteration materializes a 2-platform x 3-workload matrix as two
// sequential shards into a fresh sweep directory and merges it,
// asserting the merged report is byte-stable across iterations (the
// property that lets shards run anywhere and still produce one
// canonical artifact).
func BenchmarkShardedMatrix(b *testing.B) {
	spec := func() mperf.MatrixSpec {
		return mperf.MatrixSpec{
			Platforms:  []string{"x60", "i5"},
			Workloads:  []string{"dot", "triad", "stencil"},
			Collectors: []string{"stat"},
			Options: []mperf.Option{
				mperf.WithProgramCache(mperf.NewProgramCache()),
				mperf.WithElems(1 << 12),
				mperf.WithStatEvents("cycles", "instructions", "branches", "branch-misses"),
			},
		}
	}
	var canonical []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		for shard := 0; shard < 2; shard++ {
			if _, err := mperf.RunSweep(context.Background(), spec(), mperf.SweepConfig{
				Dir: dir, ShardIndex: shard, ShardCount: 2,
			}); err != nil {
				b.Fatal(err)
			}
		}
		res, err := mperf.MergeSweep(dir)
		if err != nil {
			b.Fatal(err)
		}
		merged, err := json.Marshal(res)
		if err != nil {
			b.Fatal(err)
		}
		if canonical == nil {
			canonical = merged
		} else if !bytes.Equal(canonical, merged) {
			b.Fatal("merged sweep report is not byte-stable across runs")
		}
	}
	b.ReportMetric(6, "cells-per-op")
}
