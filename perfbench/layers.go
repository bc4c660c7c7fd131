package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"mperf/internal/ir"
	"mperf/internal/machine"
	"mperf/internal/mem"
	"mperf/internal/miniperf"
	"mperf/internal/passes"
	"mperf/internal/platform"
	"mperf/internal/roofline"
	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
	"mperf/pkg/mperf/store"
)

// perLayer lists the metrics a traced run prints, on every workload.
// BENCHMARK.json lists the same names and units.
var perLayer = []metricDef{
	{"workloads.build_ms", "ms"},
	{"passes.pipeline_ms", "ms"},
	{"vm.compile_ms", "ms"},
	{"ir.encode_ms", "ms"},
	{"ir.decode_ms", "ms"},
	{"ir.verify_ms", "ms"},
	{"vm.decode_artifact_ms", "ms"},
	{"store.save_ms", "ms"},
	{"store.load_ms", "ms"},
	{"vm.sim_mips.matmul", "MIPS"},
	{"vm.sim_mips.sqlite", "MIPS"},
	{"vm.sim_mips.stream_add", "MIPS"},
	{"vm.sim_mips.gather", "MIPS"},
	{"vm.sim_mips.ptrchase", "MIPS"},
	{"vm.fused_step_ratio", "ratio"},
	{"vm.kernel_iters", "count"},
	{"machine.ns_per_uop.quiet", "ns"},
	{"machine.ns_per_uop.observed", "ns"},
	{"mem.ns_per_access.tile", "ns"},
	{"mem.ns_per_access.stream", "ns"},
	{"mem.ns_per_access.gather", "ns"},
	{"mem.ns_per_access.chase", "ns"},
	{"mem.ns_per_access.scatter", "ns"},
	{"mem.l1_hit_ratio.tile", "ratio"},
	{"mem.l1_hit_ratio.stream", "ratio"},
	{"mem.l1_hit_ratio.gather", "ratio"},
	{"mem.l1_hit_ratio.chase", "ratio"},
	{"mem.l1_hit_ratio.scatter", "ratio"},
	{"mem.l2_hit_ratio.tile", "ratio"},
	{"mem.l2_hit_ratio.stream", "ratio"},
	{"mem.l2_hit_ratio.gather", "ratio"},
	{"mem.l2_hit_ratio.chase", "ratio"},
	{"mem.l2_hit_ratio.scatter", "ratio"},
	{"pmu.observed_x", "ratio"},
	{"mperf.collector_ms.stat", "ms"},
	{"mperf.collector_ms.record", "ms"},
	{"mperf.collector_ms.roofline", "ms"},
	{"mperf.collector_ms.topdown", "ms"},
	{"miniperf.hotspots_ms", "ms"},
	{"flamegraph.fold_ms", "ms"},
	{"roofline.model_ms", "ms"},
	{"mperf.encode_us", "us"},
	{"vm.instantiate_us", "us"},
	{"mperf.cache_get_us", "us"},
	{"mperf.session_run_ms", "ms"},
	{"mperfd.server_overhead_ms", "ms"},
	{"mperfd.http_overhead_ms", "ms"},
	{"daemon.generator_lag_ms", "ms"},
	{"mperfd.rejected", "count"},
	{"mperfd.deadline_misses", "count"},
	{"cpu_share.vm", "ratio"},
	{"cpu_share.machine", "ratio"},
	{"cpu_share.mem", "ratio"},
	{"cpu_share.pmu", "ratio"},
	{"cpu_share.passes", "ratio"},
	{"cpu_share.ir", "ratio"},
	{"cpu_share.mperf", "ratio"},
	{"cpu_share.mperfd", "ratio"},
	{"cpu_share.net", "ratio"},
	{"cpu_share.encoding", "ratio"},
	{"cpu_share.runtime", "ratio"},
	{"cpu_share.other", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"host.cpu_per_wall", "ratio"},
	{"host.steal_share", "ratio"},
	{"trace.overhead_s", "s"},
	{"error_rate", "ratio"},
}

// probeLayers times calls into each layer's exported functions with a
// fixed amount of work and records the per-layer metrics in values.
func probeLayers(r *run, tr *tracer, values map[string]float64) error {
	probes := []struct {
		name string
		f    func(r *run, tr *tracer, parent int, values map[string]float64) error
	}{
		{"probe.compile", probeCompile},
		{"probe.vm", probeVM},
		{"probe.machine", probeMachine},
		{"probe.mem", probeMem},
		{"probe.collectors", probeCollectors},
		{"probe.daemon", probeDaemon},
	}
	for _, p := range probes {
		if _, err := tr.timed(p.name, 0, func(id int) error { return p.f(r, tr, id, values) }); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// probePlatforms are the platforms whose optimized builds the compile
// probe covers, the same keys the coldstart workload compiles.
var probePlatforms = []*platform.Platform{platform.X60(), platform.I5_1135G7()}

// probeCompile runs the compile path piece by piece over the catalog
// at default sizes: module build and seeding, the optimization
// pipeline, planning, the binary IR codec, and the artifact store.
func probeCompile(r *run, tr *tracer, parent int, values map[string]float64) error {
	var build, pipeline, compile, encode, decode, verify, save, load, decodeArt time.Duration
	st, err := store.Open(filepath.Join(r.dir, "probe-store"))
	if err != nil {
		return err
	}
	add := func(total *time.Duration, name string, f func() error) error {
		d, err := tr.timed(name, parent, func(int) error { return f() })
		*total += d
		return err
	}
	for _, name := range workloads.Names() {
		spec, err := workloads.Lookup(name, workloads.Params{})
		if err != nil {
			return err
		}
		// flavors: the raw build plus each platform's instrumented
		// optimized build.
		for flavor := 0; flavor <= len(probePlatforms); flavor++ {
			plat := probePlatforms[max(flavor-1, 0)]
			mod := ir.NewModule(name)
			if err := add(&build, "workloads.build", func() error { return spec.Build(mod) }); err != nil {
				return err
			}
			if flavor > 0 {
				profile, err := passes.ProfileByName(plat.VectorizerProfile)
				if err != nil {
					return err
				}
				if err := add(&pipeline, "passes.pipeline", func() error {
					_, err := passes.RunPipeline(mod, passes.PipelineOptions{Profile: profile,
						Lanes: plat.Core.VectorLanes32, Interleave: true, Instrument: true})
					return err
				}); err != nil {
					return err
				}
			}
			var prog *vm.Program
			if err := add(&compile, "vm.compile", func() (err error) {
				prog, err = vm.Compile(mod)
				return err
			}); err != nil {
				return err
			}
			if spec.Seed != nil {
				m := vm.NewMachine(prog, plat)
				if err := add(&build, "workloads.seed", func() error {
					if err := spec.Seed(m); err != nil {
						return err
					}
					return prog.SetDataImage(m.SnapshotData())
				}); err != nil {
					return err
				}
				m.Release()
			}

			var enc []byte
			var dec *ir.Module
			if err := add(&encode, "ir.encode", func() error { enc = ir.EncodeModule(mod); return nil }); err != nil {
				return err
			}
			if err := add(&decode, "ir.decode", func() (err error) { dec, err = ir.DecodeModule(enc); return err }); err != nil {
				return err
			}
			if err := add(&verify, "ir.verify", func() error { return ir.Verify(dec) }); err != nil {
				return err
			}

			art, err := vm.EncodeArtifact(prog)
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%s/%d", name, flavor)
			var loaded []byte
			if err := add(&save, "store.save", func() error { return st.Save(key, art) }); err != nil {
				return err
			}
			if err := add(&load, "store.load", func() (err error) { loaded, err = st.Load(key); return err }); err != nil {
				return err
			}
			if err := add(&decodeArt, "vm.decode_artifact", func() error {
				_, err := vm.DecodeArtifact(loaded)
				return err
			}); err != nil {
				return err
			}
		}
	}
	values["workloads.build_ms"] = ms(build)
	values["passes.pipeline_ms"] = ms(pipeline)
	values["vm.compile_ms"] = ms(compile)
	values["ir.encode_ms"] = ms(encode)
	values["ir.decode_ms"] = ms(decode)
	values["ir.verify_ms"] = ms(verify)
	values["store.save_ms"] = ms(save)
	values["store.load_ms"] = ms(load)
	values["vm.decode_artifact_ms"] = ms(decodeArt)
	return nil
}

// simCase is one workload the VM probe runs.
type simCase struct {
	workload string
	opts     []mperf.Option
}

var simCases = []simCase{
	{"matmul", []mperf.Option{mperf.WithMatmulSize(paperMatmulN, paperMatmulTile)}},
	{"sqlite", []mperf.Option{mperf.WithSqliteConfig(paperSqlite)}},
	{"stream_add", []mperf.Option{mperf.WithElems(memboundSize("stream_add"))}},
	{"gather", []mperf.Option{mperf.WithElems(memboundSize("gather"))}},
	{"ptrchase", []mperf.Option{mperf.WithElems(memboundSize("ptrchase"))}},
}

// simRuns is how many times the VM probe runs each workload.
const simRuns = 3

// probeVM measures simulated instructions per host second of the
// optimized builds with no counters armed, the superblock coverage of
// the paper's kernels, and machine instantiation and cache lookups.
func probeVM(r *run, tr *tracer, parent int, values map[string]float64) error {
	cache := mperf.NewProgramCache()
	for _, c := range simCases {
		sess, err := mperf.Open("x60", c.workload, append(c.opts, mperf.WithProgramCache(cache))...)
		if err != nil {
			return err
		}
		var steps uint64
		var host time.Duration
		for i := 0; i < simRuns; i++ {
			m, err := sess.NewOptimizedMachine(false)
			if err != nil {
				return err
			}
			args, err := sess.Workload().Args(m)
			if err != nil {
				return err
			}
			d, err := tr.timed("vm.run."+c.workload, parent, func(int) error {
				_, err := m.Run(sess.Workload().Entry, args...)
				return err
			})
			if err != nil {
				return err
			}
			steps += m.Steps()
			host += d
			m.Release()
		}
		values["vm.sim_mips."+c.workload] = float64(steps) / host.Seconds() / 1e6
	}

	var st vm.ExecStats
	for _, c := range simCases[:2] {
		sess, err := mperf.Open("x60", c.workload, append(c.opts, mperf.WithProgramCache(cache), mperf.WithExecStats(&st))...)
		if err != nil {
			return err
		}
		prof, err := sess.Run(mperf.MustCollectors("stat")...)
		if err != nil {
			return err
		}
		if err := prof.Err(); err != nil {
			return err
		}
	}
	if total := st.TotalSteps.Load(); total > 0 {
		values["vm.fused_step_ratio"] = float64(st.FusedSteps.Load()) / float64(total)
	}
	values["vm.kernel_iters"] = float64(st.KernelIters.Load())

	sess, err := mperf.Open("x60", "dot", mperf.WithElems(daemonElems), mperf.WithProgramCache(cache))
	if err != nil {
		return err
	}
	prog, err := sess.Program(false, false)
	if err != nil {
		return err
	}
	d, err := tr.calls("vm.instantiate", parent, 2000, func() error {
		vm.NewMachine(prog, sess.Platform()).Release()
		return nil
	})
	if err != nil {
		return err
	}
	values["vm.instantiate_us"] = us(d)
	key := sess.ProgramKey(false, false)
	miss := func() (*vm.Program, error) { return nil, errors.New("program cache missed a resident key") }
	d, err = tr.calls("mperf.cache_get", parent, 20000, func() error {
		_, _, err := cache.Get(key, miss)
		return err
	})
	values["mperf.cache_get_us"] = us(d)
	return err
}

// allSignals is an event sink that watches every signal and counts
// delivered increments, like a PMU with every counter armed for
// counting (no sampling).
type allSignals struct{ total uint64 }

func (s *allSignals) Apply(b *machine.DeltaBatch) {
	for i := 0; i < b.N; i++ {
		s.total += b.Val[i]
	}
}
func (s *allSignals) WatchMask() uint64    { return ^uint64(0) }
func (s *allSignals) SamplingActive() bool { return false }

// uopRegion draws a straight-line region of micro-ops from rng: a mix
// of integer, FP, vector, memory and branch uops over an L1-resident
// 16 KiB buffer.
func uopRegion(rng *rand.Rand, n int) ([]machine.Uop, []machine.RegionDyn) {
	classes := []machine.OpClass{
		machine.OpIntALU, machine.OpIntALU, machine.OpIntALU, machine.OpIntMul,
		machine.OpFMA, machine.OpFMA, machine.OpFPAdd,
		machine.OpLoad, machine.OpLoad, machine.OpLoad, machine.OpStore,
		machine.OpBranch, machine.OpVecFMA, machine.OpVecLoad, machine.OpVecStore,
	}
	reg := func() int32 { return int32(rng.IntN(64)) }
	tmpl := make([]machine.Uop, n)
	dyn := make([]machine.RegionDyn, n)
	for i := range tmpl {
		u := machine.Uop{Class: classes[rng.IntN(len(classes))], Dst: reg(), Src1: reg(), Src2: -1, Src3: -1}
		switch u.Class {
		case machine.OpIntALU, machine.OpIntMul:
			u.Src2, u.IntOps = reg(), 1
		case machine.OpFMA:
			u.Src2, u.Src3, u.Flops = reg(), reg(), 2
		case machine.OpFPAdd:
			u.Src2, u.Flops = reg(), 1
		case machine.OpVecFMA:
			u.Src2, u.Src3, u.Flops, u.Lanes = reg(), reg(), 16, 8
		case machine.OpLoad, machine.OpStore:
			u.Size = 4
		case machine.OpVecLoad, machine.OpVecStore:
			u.Size, u.Lanes = 32, 8
		case machine.OpBranch:
			u.Dst, u.BrID = -1, uint32(rng.IntN(16))
			dyn[i].Taken = rng.IntN(4) != 0
		}
		if u.Class.IsMem() {
			dyn[i].Addr = 0x100000 + uint64(rng.IntN(16384/32))*32
			if u.Class == machine.OpStore || u.Class == machine.OpVecStore {
				u.Dst = -1
			}
		}
		tmpl[i] = u
	}
	return tmpl, dyn
}

// probeMachine times region charging on the X60 timing model with no
// sink (the quiet path) and with every signal watched (the observed
// path).
func probeMachine(r *run, tr *tracer, parent int, values map[string]float64) error {
	tmpl, dyn := uopRegion(r.newRand(10), 256)
	const reps = 2000
	for _, c := range []struct {
		name string
		sink machine.EventSink
	}{{"quiet", nil}, {"observed", &allSignals{}}} {
		core := machine.NewCore(platform.X60().Core, c.sink)
		salt := uint32(0)
		d, err := tr.calls("machine.exec_region."+c.name, parent, reps, func() error {
			core.ExecRegion(tmpl, dyn, salt)
			salt += 64
			return nil
		})
		if err != nil {
			return err
		}
		if s, ok := c.sink.(*allSignals); ok && s.total == 0 {
			return errors.New("the observed path delivered no events")
		}
		values["machine.ns_per_uop."+c.name] = float64(d.Nanoseconds()) / float64(len(tmpl))
	}
	return nil
}

// access is one replayed memory access.
type access struct {
	addr  uint64
	size  int
	write bool
}

// accessStreams draws the replayed address streams from rng: matmul's
// tiled interleaving (L1-resident), a STREAM add, a gather, a pointer
// chase and a scatter over 1 MiB arrays (beyond the X60's L2).
func accessStreams(rng *rand.Rand) map[string][]access {
	const (
		n     = 128 // matmul dimension, f32
		tile  = 32
		elems = 1 << 18 // f32 per 1 MiB array
		a, b  = 0x1000000, 0x2000000
		c, ix = 0x3000000, 0x4000000
	)
	out := map[string][]access{}

	var tiled []access
	for t := 0; t < 12; t++ {
		ti, tj, tk := rng.IntN(n/tile)*tile, rng.IntN(n/tile)*tile, rng.IntN(n/tile)*tile
		for i := ti; i < ti+tile; i++ {
			for j := tj; j < tj+tile; j++ {
				for k := tk; k < tk+tile; k++ {
					tiled = append(tiled, access{a + uint64(i*n+k)*4, 4, false}, access{b + uint64(k*n+j)*4, 4, false})
				}
				tiled = append(tiled, access{c + uint64(i*n+j)*4, 4, true})
			}
		}
	}
	out["tile"] = tiled

	start := rng.IntN(elems)
	var stream []access
	for i := 0; i < elems; i++ {
		e := uint64((start + i) % elems)
		stream = append(stream, access{b + e*4, 4, false}, access{c + e*4, 4, false}, access{a + e*4, 4, true})
	}
	out["stream"] = stream

	var gather, scatter []access
	for i := 0; i < elems/2; i++ {
		e := uint64(i)
		j := uint64(rng.IntN(elems))
		gather = append(gather, access{ix + e*8, 8, false}, access{b + j*4, 4, false}, access{a + e*4, 4, true})
		scatter = append(scatter, access{ix + e*8, 8, false}, access{b + e*4, 4, false}, access{a + j*4, 4, true})
	}
	out["gather"], out["scatter"] = gather, scatter

	// A single cycle over 1 MiB of 8-byte slots, in random order.
	perm := rng.Perm(elems / 2)
	var chase []access
	for _, p := range perm {
		chase = append(chase, access{a + uint64(p)*8, 8, false})
	}
	out["chase"] = chase
	return out
}

// probeMem replays the seeded address streams through the X60's cache
// hierarchy.
func probeMem(r *run, tr *tracer, parent int, values map[string]float64) error {
	for name, stream := range accessStreams(r.newRand(11)) {
		h := mem.NewHierarchy(platform.X60().Core.Mem)
		var now uint64
		d, err := tr.timed("mem.access."+name, parent, func(int) error {
			for _, a := range stream {
				now += 1 + h.Access(now, a.addr, a.size, a.write).Latency/4
			}
			return nil
		})
		if err != nil {
			return err
		}
		values["mem.ns_per_access."+name] = float64(d.Nanoseconds()) / float64(len(stream))
		values["mem.l1_hit_ratio."+name] = ratio(h.L1Hits, h.L1Accesses)
		values["mem.l2_hit_ratio."+name] = ratio(h.L2Hits, h.L2Accesses)
	}
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// collectorCases is the work list of the collector probe.
var collectorCases = []simCase{
	{"sqlite", []mperf.Option{mperf.WithSqliteConfig(paperSqlite)}},
	{"matmul", []mperf.Option{mperf.WithMatmulSize(64, 32)}},
	{"stream_add", []mperf.Option{mperf.WithElems(memboundSize("stream_add"))}},
}

// probeCollectors runs each collector alone over the work list on a
// warm cache, the PMU's cost against a quiet run, the collectors'
// post-processing, and profile encoding.
func probeCollectors(r *run, tr *tracer, parent int, values map[string]float64) error {
	cache := mperf.NewProgramCache()
	var sessions []*mperf.Session
	for _, c := range collectorCases {
		sess, err := mperf.Open("x60", c.workload, append(c.opts, mperf.WithProgramCache(cache))...)
		if err != nil {
			return err
		}
		sessions = append(sessions, sess)
		for _, flavor := range [][2]bool{{false, false}, {true, true}} {
			if _, err := sess.Program(flavor[0], flavor[1]); err != nil {
				return err
			}
		}
	}

	var profiles []*mperf.Profile
	for _, name := range []string{"stat", "record", "roofline", "topdown"} {
		var total time.Duration
		for _, sess := range sessions {
			var prof *mperf.Profile
			d, err := tr.timed("mperf.collect."+name, parent, func(int) (err error) {
				prof, err = sess.Run(mperf.MustCollectors(name)...)
				return err
			})
			if err != nil {
				return err
			}
			if err := checkProfile(prof); err != nil {
				return err
			}
			total += d
			profiles = append(profiles, prof)
		}
		values["mperf.collector_ms."+name] = ms(total)
	}

	// pmu.observed_x: counting run against a quiet run of the same raw
	// build.
	sess := sessions[2]
	var observed, quiet []float64
	for i := 0; i < 3; i++ {
		d, err := tr.timed("pmu.observed_run", parent, func(int) error {
			_, err := sess.Run(mperf.MustCollectors("stat")...)
			return err
		})
		if err != nil {
			return err
		}
		observed = append(observed, d.Seconds())
		m, err := sess.NewMachine()
		if err != nil {
			return err
		}
		d, err = tr.timed("pmu.quiet_run", parent, func(int) error { return sess.Workload().Run(m) })
		if err != nil {
			return err
		}
		m.Release()
		quiet = append(quiet, d.Seconds())
	}
	values["pmu.observed_x"] = median(observed) / median(quiet)

	record := profiles[len(sessions)] // sqlite under the record collector
	rec := record.Recording
	d, err := tr.calls("miniperf.hotspots", parent, 200, func() error {
		if len(rec.Hotspots()) == 0 {
			return errors.New("recording has no hotspots")
		}
		return nil
	})
	if err != nil {
		return err
	}
	values["miniperf.hotspots_ms"] = ms(d)
	d, err = tr.calls("flamegraph.fold", parent, 200, func() error {
		if rec.FlameGraph("SpacemiT X60", miniperf.MetricCycles).Folded() == "" {
			return errors.New("empty folded flame graph")
		}
		return nil
	})
	if err != nil {
		return err
	}
	values["flamegraph.fold_ms"] = ms(d)
	x60 := platform.X60()
	d, err = tr.calls("roofline.model", parent, 200, func() error {
		m := &roofline.Model{
			Platform: x60.Name,
			Compute:  []roofline.ComputeCeiling{{Name: "peak", GFLOPS: x60.TheoreticalPeakGFLOPS}},
			Memory: []roofline.MemoryCeiling{
				{Name: "L1", GiBps: x60.Core.Mem.L1D.PeakBytesPerCycle() * x60.Core.FreqHz / (1 << 30)},
				{Name: "L2", GiBps: x60.Core.Mem.L2.PeakBytesPerCycle() * x60.Core.FreqHz / (1 << 30)},
				{Name: "DRAM", GiBps: x60.Core.Mem.DRAM.BytesPerCycle * x60.Core.FreqHz / (1 << 30)},
			},
		}
		m.AddPoint(roofline.Point{Name: "matmul", AI: 1.2, GFLOPS: 0.93, Source: "miniperf (IR)"})
		if len(m.Ridges()) != 3 || m.ASCIIPlot(100, 20) == "" {
			return errors.New("roofline model lost a ceiling")
		}
		return nil
	})
	if err != nil {
		return err
	}
	values["roofline.model_ms"] = ms(d)

	var buf bytes.Buffer
	next := 0
	d, err = tr.calls("mperf.encode", parent, 50*len(profiles), func() error {
		buf.Reset()
		next++
		return mperf.WriteJSON(&buf, profiles[next%len(profiles)])
	})
	values["mperf.encode_us"] = us(d)
	return err
}

// overheadRuns is how many times the daemon probe sends the request.
const overheadRuns = 200

// probeDaemon serves one request shape in process, through
// Server.Profile and over HTTP, to split a request's latency into the
// session run, the server's overhead and the transport's; then runs a
// short open loop for the queue figures.
func probeDaemon(r *run, tr *tracer, parent int, values map[string]float64) error {
	sub := &run{workload: r.workload, seed: r.seed, dir: r.dir, extra: map[string]float64{}}
	dw := &daemonWorkload{}
	defer dw.close()
	defer func() {
		r.attempted += sub.attempted
		r.failed += sub.failed
		r.failures = append(r.failures, sub.failures...)
	}()
	if err := dw.setup(sub); err != nil {
		return err
	}
	q := daemonRequest{"x60", true}
	req := q.wire()
	sess, err := mperf.Open(req.Platform, req.Workload, append(req.Options(), mperf.WithProgramCache(dw.cache))...)
	if err != nil {
		return err
	}
	cols, err := mperf.Collectors(req.Collectors...)
	if err != nil {
		return err
	}
	cs := dw.srv.OpenSession("perfbench")
	defer dw.srv.CloseSession(cs.ID())

	var inProcess, server, overHTTP []float64
	for i := 0; i < overheadRuns; i++ {
		d, err := tr.timed("mperf.session_run", parent, func(int) error {
			_, err := sess.Run(cols...)
			return err
		})
		if err != nil {
			return err
		}
		inProcess = append(inProcess, d.Seconds())
		d, err = tr.timed("mperfd.server_profile", parent, func(int) error {
			prof, err := dw.srv.Profile(context.Background(), cs, req, nil)
			if err != nil {
				return err
			}
			return checkResponse(prof, dw.expected[q])
		})
		sub.op(err)
		server = append(server, d.Seconds())
		d, err = tr.timed("client.profile", parent, func(int) error { return dw.request(q) })
		sub.op(err)
		overHTTP = append(overHTTP, d.Seconds())
	}
	values["mperf.session_run_ms"] = median(inProcess) * 1e3
	values["mperfd.server_overhead_ms"] = (median(server) - median(inProcess)) * 1e3
	values["mperfd.http_overhead_ms"] = (median(overHTTP) - median(server)) * 1e3

	lags, err := dw.openLoop(sub, 500*time.Millisecond)
	if err != nil {
		return err
	}
	st := dw.srv.Stats()
	values["daemon.generator_lag_ms"] = median(lags) * 1e3
	values["mperfd.rejected"] = float64(st.Rejected + st.Limited)
	values["mperfd.deadline_misses"] = float64(st.DeadlineMisses)
	return nil
}

// memboundSize returns the membound workload's element count for a
// kernel.
func memboundSize(kernel string) int {
	for _, k := range memboundElems {
		if k.kernel == kernel {
			return k.elems
		}
	}
	panic("no membound size for " + kernel)
}
