package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// tracer keeps spans in memory and writes them out when the run ends.
// Spans are recorded from the benchmark's own code, around its calls
// into each layer.
type tracer struct {
	t0    time.Time
	spans []span
}

type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 for a root span
	Name     string  `json:"name"`
	StartMS  float64 `json:"start_ms"`
	EndMS    float64 `json:"end_ms"`
	Calls    int     `json:"calls,omitempty"` // calls the span times, when more than one
	SelfMS   float64 `json:"self_ms"`
	children float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timed runs f inside a span named name under parent and returns the
// span's id and duration.
func (t *tracer) timed(name string, parent int, f func(id int) error) (time.Duration, error) {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	start := time.Now()
	err := f(id)
	d := time.Since(start)
	s := &t.spans[id-1]
	s.StartMS = start.Sub(t.t0).Seconds() * 1e3
	s.EndMS = s.StartMS + d.Seconds()*1e3
	if parent > 0 {
		t.spans[parent-1].children += d.Seconds() * 1e3
	}
	return d, err
}

// calls times n calls of f in one span and returns the time per call.
func (t *tracer) calls(name string, parent, n int, f func() error) (time.Duration, error) {
	d, err := t.timed(name, parent, func(int) error {
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	t.spans[len(t.spans)-1].Calls = n
	return d / time.Duration(n), err
}

// write stores the spans, with each span's self time (its duration
// minus the time its children cover), as JSON next to the run's
// scratch directory.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfMS = s.EndMS - s.StartMS - s.children
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// phaseShare is the share of the measured time given to each of the
// untraced and the traced workload phases of a traced run; the layer
// probes take a fixed amount of work after them.
const phaseShare = 0.3

// tracedRun measures the workload untraced, then traced under a CPU
// profile, then runs the layer probes, and returns every per-layer
// metric.
func tracedRun(r *run, w workload, budget time.Duration) (map[string]metricValue, error) {
	tr := newTracer()
	values := map[string]float64{}
	phase := time.Duration(float64(budget) * phaseShare)
	// The cold/warm cycles between passes feed end-to-end metrics only;
	// here they would add compile work to the workload's CPU profile.
	r.betweenPasses = nil

	var untraced float64
	if _, err := tr.timed("workload.untraced", 0, func(int) error {
		err := w.measure(r, phase)
		untraced = median(r.passes)
		return err
	}); err != nil {
		return nil, err
	}

	r.passes = nil
	ops0 := r.attempted
	var prof bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	_, err := tr.timed("workload.traced", 0, func(int) error { return w.measure(r, phase) })
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	values["trace.overhead_s"] = median(r.passes) - untraced
	after.addShares(before, r.attempted-ops0, values)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for bucket, v := range shares {
		values["cpu_share."+bucket] = v
	}

	if err := probeLayers(r, tr, values); err != nil {
		return nil, err
	}
	// The daemon workload's own open loop gives its queue figures; the
	// other workloads take them from the daemon probe.
	for _, k := range []string{"daemon.generator_lag_ms", "mperfd.rejected", "mperfd.deadline_misses"} {
		if v, ok := r.extra[k]; ok {
			values[k] = v
		}
	}
	values["error_rate"] = errorRate(r)

	path := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	out := map[string]metricValue{}
	for _, d := range perLayer {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("traced run did not measure %s", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// runtimeSample is what a traced phase reads before and after itself.
type runtimeSample struct {
	cpu             time.Duration
	gcCPU, totalCPU float64
	allocBytes      uint64
	steal           cpuTimes
	at              time.Time
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return runtimeSample{
		cpu:        cpuTime(),
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
		allocBytes: samples[2].Value.Uint64(),
		steal:      readCPUTimes(),
		at:         time.Now(),
	}
}

// addShares records the runtime and host figures of the phase that
// ran from before to s, over ops operations.
func (s runtimeSample) addShares(before runtimeSample, ops int, values map[string]float64) {
	if d := s.totalCPU - before.totalCPU; d > 0 {
		values["runtime.gc_cpu_share"] = (s.gcCPU - before.gcCPU) / d
	} else {
		values["runtime.gc_cpu_share"] = 0
	}
	values["runtime.alloc_mb_per_op"] = float64(s.allocBytes-before.allocBytes) / 1e6 / float64(max(ops, 1))
	values["host.cpu_per_wall"] = (s.cpu - before.cpu).Seconds() / s.at.Sub(before.at).Seconds()
	values["host.steal_share"] = before.steal.stealShareSince()
}
