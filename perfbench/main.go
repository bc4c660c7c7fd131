// Command perfbench is the repository benchmark. It drives the
// simulator, the collectors, the program store and the mperfd daemon
// through their exported functions, checks every output it gets, and
// prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run) as one JSON line.
//
// Usage:
//
//	perfbench --workload paper|membound|coldstart|daemon --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result object; the line
// before it is a report with the host context, the seed and the
// metrics that are not gated (tails, throughput, error rate). See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics an untraced run prints, on every
// workload. BENCHMARK.json lists the same names and units
// (TestBenchmarkJSONMatchesTables pins that).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"cold_compile_ms", "ms"},
	{"warm_start_ms", "ms"},
	{"request_p50_ms", "ms"},
	{"retained_heap_mib", "MiB"},
}

// workload is one benchmark workload. setup runs several times per
// process (each call replaces the previous state and must close it);
// measure then runs against the state the last setup left.
type workload interface {
	// setup prepares the measured state and records the cold compile
	// and warm start samples of the workload's program keys.
	setup(r *run) error
	// measure runs passes until the budget is spent.
	measure(r *run, budget time.Duration) error
	// close releases what the last setup built.
	close()
}

var workloadsByName = map[string]func() workload{
	"paper":     func() workload { return &paperWorkload{} },
	"membound":  func() workload { return &memboundWorkload{} },
	"coldstart": func() workload { return &coldstartWorkload{} },
	"daemon":    func() workload { return &daemonWorkload{} },
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// run carries one invocation's inputs and the samples it collects.
type run struct {
	workload string
	seed     uint64
	dir      string // scratch directory inside the checkout

	attempted, failed int
	failures          []string

	// betweenPasses, when set, runs after every measured pass, outside
	// its time (see measureColdWarm).
	betweenPasses func() error

	// samples collected by the workload, in seconds
	passes   []float64 // wall time of each pass
	passCPU  []float64 // process CPU time of each pass
	requests []float64 // request latencies
	cold     []float64 // cold compile of the workload's key set
	warm     []float64 // warm start of the same keys from the store
	extra    map[string]float64
}

// op counts one attempted operation and records err as a failure.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// newRand derives an independent generator for one input stream, so
// adding a stream does not shift the inputs of the others.
func (r *run) newRand(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(r.seed, stream))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload: paper, membound, coldstart or daemon")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	compare := flag.Bool("compare", false, "compare report lines read from the files named as arguments")
	flag.Parse()
	if *compare {
		if err := compareReports(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := runMain(*wl, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(name string, seed uint64, seconds int, traced bool) error {
	newWorkload, ok := workloadsByName[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (known: paper, membound, coldstart, daemon)", name)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{workload: name, seed: seed, dir: dir, extra: map[string]float64{}}
	host := readHost()
	steal0 := readCPUTimes()
	w := newWorkload()
	defer w.close()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(r); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	budget := time.Duration(seconds) * time.Second
	var metrics map[string]metricValue
	if traced {
		m, err := tracedRun(r, w, budget)
		if err != nil {
			return err
		}
		metrics = m
	} else {
		if err := w.measure(r, budget); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		metrics = endToEndMetrics(r, setups)
	}
	host.StealShare = steal0.stealShareSince()

	report := map[string]any{
		"report":     "perfbench",
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"host":       host,
		"comparable": host.fingerprint(),
		"samples": map[string]int{
			"setups": len(setups), "passes": len(r.passes), "requests": len(r.requests),
			"cold": len(r.cold), "warm": len(r.warm),
		},
		"pass_times_s": r.passes,
		"pass_cpu_s":   median(r.passCPU),
		"peak_rss_mib": peakRSSMiB(),
		"extra":        r.extra,
		"error_rate":   errorRate(r),
		"failures":     r.failures,
	}
	if err := printJSON(report); err != nil {
		return err
	}
	return printJSON(result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   metrics,
	})
}

// endToEndMetrics reduces an untraced run's samples to the gated
// metrics.
func endToEndMetrics(r *run, setups []float64) map[string]metricValue {
	values := map[string]float64{
		"setup_s":           median(setups),
		"pass_s":            median(r.passes),
		"cold_compile_ms":   trimmedMean(r.cold, 0.1) * 1e3,
		"warm_start_ms":     trimmedMean(r.warm, 0.1) * 1e3,
		"request_p50_ms":    median(r.requests) * 1e3,
		"retained_heap_mib": retainedHeapMiB(),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

func errorRate(r *run) float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// scratchDir makes a private directory for stores and artifacts under
// the build directory of the checkout the benchmark runs in.
func scratchDir() (string, error) {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "perfbench-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
