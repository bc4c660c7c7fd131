package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics, or NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// trimmedMean is the mean of xs without its lowest and highest trim
// share, or NaN for no samples. For bimodal costs (a compile that now
// and then pays for a collection or fresh pages) it moves smoothly with
// the share of slow samples, where the median jumps between modes.
func trimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tailPercentile returns the highest of p99, p90 and p75 that leaves at
// least ten samples above it, with its label; ok is false when even
// p75 has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (label string, value float64, ok bool) {
	for _, p := range []int{99, 90, 75} {
		if len(xs)*(100-p) >= 10*100 {
			return fmt.Sprintf("p%d", p), quantile(xs, float64(p)/100), true
		}
	}
	return "", 0, false
}

// repeat calls pass until budget has elapsed and at least min passes
// ran, recording each pass's wall time and CPU time, and runs
// r.betweenPasses, when set, after each pass. A pass error stops the
// loop.
func (r *run) repeat(budget time.Duration, min int, pass func() error) error {
	deadline := time.Now().Add(budget)
	for n := 0; n < min || time.Now().Before(deadline); n++ {
		cpu0, start := cpuTime(), time.Now()
		if err := pass(); err != nil {
			return err
		}
		r.passes = append(r.passes, time.Since(start).Seconds())
		r.passCPU = append(r.passCPU, (cpuTime() - cpu0).Seconds())
		if r.betweenPasses != nil {
			if err := r.betweenPasses(); err != nil {
				return err
			}
		}
	}
	return nil
}
