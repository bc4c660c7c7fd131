package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares splits the flat samples of a runtime/pprof CPU profile
// across the repository's layers (plus the standard library's network,
// encoding and runtime code) by the package of each sample's innermost
// function. The shares sum to 1.
func cpuShares(gz []byte) (map[string]float64, error) {
	flat, err := flatSamples(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b.name] = 0
	}
	shares["other"] = 0
	var total int64
	for fn, n := range flat {
		shares[bucketOf(fn)] += float64(n)
		total += n
	}
	if total == 0 {
		return nil, errors.New("the CPU profile holds no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

// cpuBuckets maps package paths to layers. A package belongs to the
// first bucket one of whose prefixes matches it whole or up to a "/".
var cpuBuckets = []struct {
	name     string
	prefixes []string
}{
	{"vm", []string{"mperf/internal/vm"}},
	{"machine", []string{"mperf/internal/machine"}},
	{"mem", []string{"mperf/internal/mem"}},
	{"pmu", []string{"mperf/internal/pmu", "mperf/internal/kernel", "mperf/internal/sbi"}},
	{"passes", []string{"mperf/internal/passes"}},
	{"ir", []string{"mperf/internal/ir", "mperf/internal/workloads"}},
	{"mperfd", []string{"mperf/pkg/mperfd"}},
	{"mperf", []string{"mperf/pkg/mperf", "mperf/internal/miniperf", "mperf/internal/flamegraph",
		"mperf/internal/roofline", "mperf/internal/tma", "mperf/internal/experiments",
		"mperf/internal/report", "mperf/internal/mperfrt", "mperf/internal/isa", "mperf/internal/platform"}},
	{"net", []string{"net", "bufio", "internal/poll", "syscall", "os", "internal/syscall", "vendor/golang.org/x/net"}},
	{"encoding", []string{"encoding", "reflect", "hash", "crypto", "compress", "strconv", "unicode"}},
	{"runtime", []string{"runtime", "internal/runtime", "sync", "internal/sync", "time"}},
}

func bucketOf(function string) string {
	pkg := packageOf(function)
	for _, b := range cpuBuckets {
		for _, p := range b.prefixes {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return b.name
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a symbol name such as
// "mperf/internal/vm.(*Machine).Run" or "runtime.mallocgc".
func packageOf(function string) string {
	slash := strings.LastIndex(function, "/")
	dot := strings.Index(function[slash+1:], ".")
	if dot < 0 {
		return function
	}
	return function[:slash+1+dot]
}

// flatSamples decodes a gzipped profile.proto and returns the sample
// count of each innermost function (pprof's "flat" column).
func flatSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]int64{}  // function id → string index
		strs     []string
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			first, haveCount := true, false
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1: // location_id, packed or not
					return eachVarint(w, v, b, func(id uint64) {
						if first {
							s.leaf, first = id, false
						}
					})
				case f == 2 && !haveCount: // value[0]: sample count
					return eachVarint(w, v, b, func(n uint64) {
						if !haveCount {
							s.count, haveCount = int64(n), true
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine: // line[0] is the innermost inlined call
					haveLine = true
					return protoFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	flat := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if i := funcName[locFunc[s.leaf]]; i > 0 && int(i) < len(strs) {
			name = strs[i]
		}
		flat[name] += s.count
	}
	return flat, nil
}

// protoFields calls f for each field of a protobuf message: v holds
// varint and fixed-width values, b the bytes of length-delimited ones.
func protoFields(msg []byte, f func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint visits a repeated varint field given either as one value
// or packed.
func eachVarint(wire int, v uint64, b []byte, f func(uint64)) error {
	if wire != 2 {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		b = b[n:]
	}
	return nil
}
