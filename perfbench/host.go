package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the context recorded with every result. Results whose
// fingerprints differ come from different hosts or toolchains and are
// not comparable.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"` // share of host CPU time stolen during the run
}

func readHost() hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  strings.TrimPrefix(runtime.Version(), "go"),
	}
}

// fingerprint identifies the host and toolchain a result came from;
// steal is left out because it varies within one host.
func (h hostInfo) fingerprint() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%s", h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion)))
	return hex.EncodeToString(sum[:6])
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
	ok           bool
}

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealShareSince is the share of host CPU time stolen by the
// hypervisor between t and now, or 0 where /proc/stat is unreadable.
func (t cpuTimes) stealShareSince() float64 {
	now := readCPUTimes()
	if !t.ok || !now.ok || now.total <= t.total {
		return 0
	}
	return float64(now.steal-t.steal) / float64(now.total-t.total)
}

// retainedHeapMiB collects garbage and returns the live heap: what the
// process keeps between passes, caches included. The second collection
// empties the sync.Pool victim caches, whose content depends on which
// operation ran last.
func retainedHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	read := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(read)
	return float64(read[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
