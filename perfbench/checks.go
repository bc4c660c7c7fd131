package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"mperf/pkg/mperf"
)

// The output checks. Each returns an error on a wrong output; the
// workloads count that operation as failed, which is what error_rate
// and the result's "failed" count report. checks_test.go shows each
// one firing on a wrong output.

// pinned holds the paper metrics the reproduction must keep exactly,
// at the four significant digits they are published with.
var pinned = struct {
	IPCGap, X86GFLOPS, X60GFLOPS, MemsetBytesPerCycle string
}{"3.409", "22.08", "0.9267", "3.369"}

// paperMetrics are the values a paper pass reproduces.
type paperMetrics struct {
	IPCGap              float64 // Table 2: i5 IPC / X60 IPC
	X86GFLOPS           float64 // Figure 4: miniperf point on the i5
	X60GFLOPS           float64 // Figure 4: miniperf point on the X60
	MemsetBytesPerCycle float64 // memset roof on the X60
}

// checkPinned fails when any reproduced metric drifts from its pin.
func checkPinned(m paperMetrics) error {
	for _, c := range []struct {
		name string
		got  float64
		want string
	}{
		{"IPC-gap", m.IPCGap, pinned.IPCGap},
		{"x86 miniperf GFLOP/s", m.X86GFLOPS, pinned.X86GFLOPS},
		{"x60 miniperf GFLOP/s", m.X60GFLOPS, pinned.X60GFLOPS},
		{"memset bytes/cycle", m.MemsetBytesPerCycle, pinned.MemsetBytesPerCycle},
	} {
		if got := fmt.Sprintf("%.4g", c.got); got != c.want {
			return fmt.Errorf("%s = %s, pinned %s", c.name, got, c.want)
		}
	}
	return nil
}

// profileBytes encodes a profile the way the CLI and the daemon do,
// with compile_stats stripped: that field reports cache traffic, the
// one part of a profile that depends on what ran before.
func profileBytes(p *mperf.Profile) ([]byte, error) {
	stripped := *p
	stripped.CompileStats = nil
	var buf bytes.Buffer
	if err := mperf.WriteJSON(&buf, &stripped); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sameOutputs checks that an output named key has the same bytes on
// every pass: the first pass records the digest, later passes must
// match it.
type sameOutputs map[string]string

func (s sameOutputs) check(key string, b []byte) error {
	d := digest(b)
	first, ok := s[key]
	if !ok {
		s[key] = d
		return nil
	}
	if d != first {
		return fmt.Errorf("%s: output bytes changed between passes (%.12s != %.12s)", key, d, first)
	}
	return nil
}

// checkProfile fails on a profile with collector errors or one that
// compiled during a measured (warm) pass.
func checkProfile(p *mperf.Profile) error {
	if err := p.Err(); err != nil {
		return err
	}
	if p.CompileStats == nil {
		return nil
	}
	return checkNoCompiles(p.Workload+" on "+p.Platform.Name, *p.CompileStats)
}

// checkNoCompiles fails when work that ran on a warm cache compiled.
func checkNoCompiles(what string, delta mperf.CompileStats) error {
	if delta.Compiled != 0 {
		return fmt.Errorf("%s compiled %d programs on a warm cache", what, delta.Compiled)
	}
	return nil
}

// checkWarmStart fails unless the warm phase served every key from
// the disk store without compiling.
func checkWarmStart(delta mperf.CompileStats, keys int) error {
	if delta.Compiled != 0 {
		return fmt.Errorf("warm start compiled %d of %d keys", delta.Compiled, keys)
	}
	if delta.DiskHits != uint64(keys) {
		return fmt.Errorf("warm start loaded %d of %d keys from the store", delta.DiskHits, keys)
	}
	return nil
}

// checkResponse fails unless a daemon response encodes to the same
// bytes as the in-process Session.Run profile of the same request.
func checkResponse(got *mperf.Profile, want []byte) error {
	b, err := profileBytes(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, want) {
		return fmt.Errorf("daemon %s/%s response differs from the in-process profile (%.12s != %.12s)",
			got.Platform.Name, got.Workload, digest(b), digest(want))
	}
	return nil
}

// statsDelta is after minus before, counter by counter.
func statsDelta(before, after mperf.CompileStats) mperf.CompileStats {
	return mperf.CompileStats{
		Compiled:    after.Compiled - before.Compiled,
		CacheHits:   after.CacheHits - before.CacheHits,
		DiskHits:    after.DiskHits - before.DiskHits,
		FailedWaits: after.FailedWaits - before.FailedWaits,
	}
}
