package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"mperf/internal/platform"
	"mperf/pkg/mperf"
)

// Each output check must pass on a right output and fire on a wrong
// one; these tests feed it both.

func TestCheckPinnedFiresOnDrift(t *testing.T) {
	bpc, err := memsetRoof()
	if err != nil {
		t.Fatal(err)
	}
	good := paperMetrics{IPCGap: 3.409, X86GFLOPS: 22.08, X60GFLOPS: 0.9267, MemsetBytesPerCycle: bpc}
	if err := checkPinned(good); err != nil {
		t.Fatalf("pinned values rejected: %v", err)
	}
	for i, bad := range []paperMetrics{
		{IPCGap: 3.41, X86GFLOPS: 22.08, X60GFLOPS: 0.9267, MemsetBytesPerCycle: bpc},
		{IPCGap: 3.409, X86GFLOPS: 22.09, X60GFLOPS: 0.9267, MemsetBytesPerCycle: bpc},
		{IPCGap: 3.409, X86GFLOPS: 22.08, X60GFLOPS: 0.9266, MemsetBytesPerCycle: bpc},
		{IPCGap: 3.409, X86GFLOPS: 22.08, X60GFLOPS: 0.9267, MemsetBytesPerCycle: bpc * 1.001},
		{},
	} {
		if checkPinned(bad) == nil {
			t.Errorf("case %d: drifted metrics %+v passed", i, bad)
		}
	}
}

func TestSameOutputsFiresOnChangedBytes(t *testing.T) {
	s := sameOutputs{}
	if err := s.check("x60/spmv", []byte("profile")); err != nil {
		t.Fatal(err)
	}
	if err := s.check("x60/spmv", []byte("profile")); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	if err := s.check("i5/spmv", []byte("other")); err != nil {
		t.Fatalf("a second key is its own reference: %v", err)
	}
	if s.check("x60/spmv", []byte("profilE")) == nil {
		t.Fatal("changed bytes passed")
	}
}

// dotProfile runs the daemon's request shape in process.
func dotProfile(t *testing.T, cache *mperf.ProgramCache, q daemonRequest) *mperf.Profile {
	t.Helper()
	req := q.wire()
	sess, err := mperf.Open(req.Platform, req.Workload, append(req.Options(), mperf.WithProgramCache(cache))...)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sess.Run(mperf.MustCollectors(req.Collectors...)...)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestProfileBytesIgnoreOnlyCompileStats(t *testing.T) {
	cache := mperf.NewProgramCache()
	q := daemonRequest{"x60", true}
	cold, warm := dotProfile(t, cache, q), dotProfile(t, cache, q)
	if cold.CompileStats.Compiled != 1 || warm.CompileStats.Compiled != 0 {
		t.Fatalf("compile stats %+v then %+v, want one compile then none", cold.CompileStats, warm.CompileStats)
	}
	a, err := profileBytes(cold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := profileBytes(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("profiles that differ only in compile_stats encode differently")
	}
	if strings.Contains(string(a), "compile_stats") {
		t.Fatal("compile_stats not stripped")
	}
}

func TestCheckResponseFiresOnWrongProfile(t *testing.T) {
	cache := mperf.NewProgramCache()
	q := daemonRequest{"i5", true}
	want, err := inProcessProfile(cache, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResponse(dotProfile(t, cache, q), want); err != nil {
		t.Fatalf("the in-process profile itself rejected: %v", err)
	}
	wrongIPC := dotProfile(t, cache, q)
	wrongIPC.IPC *= 1.0001
	if checkResponse(wrongIPC, want) == nil {
		t.Error("a response with another IPC passed")
	}
	if checkResponse(dotProfile(t, cache, daemonRequest{"x60", true}), want) == nil {
		t.Error("a response for another platform passed")
	}
	if checkResponse(dotProfile(t, cache, daemonRequest{"i5", false}), want) == nil {
		t.Error("a response without topdown passed")
	}
}

func TestCheckProfileFires(t *testing.T) {
	p := &mperf.Profile{Workload: "spmv", CompileStats: &mperf.CompileStats{CacheHits: 2}}
	if err := checkProfile(p); err != nil {
		t.Fatalf("a clean warm profile rejected: %v", err)
	}
	p.CompileStats.Compiled = 1
	if checkProfile(p) == nil {
		t.Error("a warm profile that compiled passed")
	}
	p.CompileStats.Compiled = 0
	p.Errors = []mperf.CollectorError{{Collector: "topdown", Message: "boom"}}
	if checkProfile(p) == nil {
		t.Error("a profile with a collector error passed")
	}
}

func TestCheckWarmStartFires(t *testing.T) {
	if err := checkWarmStart(mperf.CompileStats{DiskHits: 39}, 39); err != nil {
		t.Fatalf("a full warm start rejected: %v", err)
	}
	for _, bad := range []mperf.CompileStats{
		{Compiled: 1, DiskHits: 38},
		{DiskHits: 38, CacheHits: 1},
		{DiskHits: 38},
	} {
		if checkWarmStart(bad, 39) == nil {
			t.Errorf("warm start %+v passed", bad)
		}
	}
}

func TestColdThenWarmServesFromStore(t *testing.T) {
	cache := mperf.NewProgramCache()
	var keys []buildKey
	for _, plat := range []string{"x60", "i5"} {
		sess, err := mperf.Open(plat, "dot", mperf.WithElems(daemonElems), mperf.WithProgramCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, buildKey{sess, false, false}, buildKey{sess, true, true})
	}
	keys = uniqueKeys(keys)
	if len(keys) != 3 {
		t.Fatalf("%d unique keys, want 3 (one shared raw build)", len(keys))
	}
	var loads int
	if _, _, err := coldThenWarm(cache, t.TempDir(), keys, func(time.Duration) { loads++ }); err != nil {
		t.Fatal(err)
	}
	if loads != len(keys) {
		t.Fatalf("%d warm loads timed, want %d", loads, len(keys))
	}
}

func TestMemboundWorkingSetsExceedL2(t *testing.T) {
	l2 := platform.X60().Core.Mem.L2.SizeBytes
	for _, k := range memboundElems {
		if ws := k.elems * k.bytes; ws <= l2 {
			t.Errorf("%s working set %d B does not exceed the X60 L2 (%d B)", k.kernel, ws, l2)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{{1000, "p99"}, {999, "p90"}, {100, "p90"}, {40, "p75"}, {39, ""}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		label, _, ok := tailPercentile(xs)
		if label != c.label || ok != (c.label != "") {
			t.Errorf("%d samples: got %q, want %q", c.n, label, c.label)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Error("quantile reordered its input")
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mperf/internal/vm.(*Machine).Run":                "vm",
		"mperf/internal/machine.(*Core).ExecRegion":       "machine",
		"mperf/internal/mem.(*Hierarchy).Access":          "mem",
		"mperf/internal/kernel.(*Subsystem).ReadCount":    "pmu",
		"mperf/internal/workloads.BuildMatmul":            "ir",
		"mperf/pkg/mperf/store.(*Store).Load":             "mperf",
		"mperf/pkg/mperfd/client.(*Client).Profile":       "mperfd",
		"net/http.(*conn).serve":                          "net",
		"encoding/json.(*encodeState).marshal":            "encoding",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/syscall.Syscall6":               "runtime",
		"main.(*daemonWorkload).request":                  "other",
		"mperf/internal/vm.compileKernel[...].func1":      "vm",
		"mperf/internal/memx.Fake":                        "other",
		"mperf/internal/machine.(*Core).regionObserved.1": "machine",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesDecodeAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if len(shares) != len(cpuBuckets)+1 {
		t.Errorf("%d buckets, want %d", len(shares), len(cpuBuckets)+1)
	}
	if shares["other"]+shares["runtime"] < 0.5 {
		t.Errorf("a busy loop in package main landed in %v", shares)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, the manifest
// that names the workloads and metrics, in step with what the program
// prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, slices.Sorted(maps.Keys(workloadsByName))) {
		t.Errorf("workloads %v, program has %v", names, slices.Sorted(maps.Keys(workloadsByName)))
	}
	same := func(what string, json []struct{ Name, Unit string }, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(json), len(defs))
			return
		}
		for i, d := range defs {
			if json[i].Name != d.Name || json[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, json[i].Name, json[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	runOut := func(fingerprint string, pass float64) string {
		rep := `{"report":"perfbench","workload":"paper","comparable":"` + fingerprint + `"}`
		res := `{"correct":true,"attempted":1,"failed":0,"metrics":{"pass_s":{"value":` +
			strconv.FormatFloat(pass, 'g', -1, 64) + `,"unit":"s"}}}`
		return rep + "\n" + res + "\n"
	}
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", runOut("aaa", 1.0)+runOut("aaa", 1.2))
	same := write("same", runOut("aaa", 1.5))
	other := write("other", runOut("bbb", 1.5))

	var out bytes.Buffer
	if err := compareReports(&out, []string{base, same}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "paper pass_s: base 1.1 (n=2) new 1.5 (n=1) change +36.36%") {
		t.Errorf("same-host comparison printed %q", out.String())
	}
	out.Reset()
	if err := compareReports(&out, []string{base, other}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "not comparable") || strings.Contains(out.String(), "change") {
		t.Errorf("cross-host comparison printed %q", out.String())
	}
}
