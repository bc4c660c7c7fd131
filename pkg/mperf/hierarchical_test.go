package mperf_test

import (
	"encoding/json"
	"testing"

	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// hierProfileJSON runs every collector mode over one workload with
// hierarchical roofline collection on or off and returns the canonical
// Profile JSON with the compile accounting and (when collected) the
// hierarchical extension stripped — leaving exactly the legacy shape
// for byte comparison.
func hierProfileJSON(t *testing.T, name string, hier bool) []byte {
	t.Helper()
	opts := []mperf.Option{mperf.WithProgramCache(mperf.NewProgramCache())}
	if hier {
		opts = append(opts, mperf.WithHierarchicalRoofline())
	}
	sess := catalogSession(t, name, opts...)
	prof, err := sess.Run(mperf.MustCollectors("stat", "record", "roofline", "topdown")...)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if err := prof.Err(); err != nil {
		t.Fatalf("%s: collector errors: %v", name, err)
	}
	prof.CompileStats = nil
	if hier {
		h := prof.Roofline.Hierarchical
		if h == nil {
			t.Fatalf("%s: hierarchical collection armed but no data emitted", name)
		}
		if len(h.Ceilings) != 3 {
			t.Fatalf("%s: got %d ceilings, want L1/L2/DRAM", name, len(h.Ceilings))
		}
		for i := 1; i < len(h.Ceilings); i++ {
			if h.Ceilings[i].GiBps > h.Ceilings[i-1].GiBps {
				t.Errorf("%s: ceilings not monotone: %s %.2f > %s %.2f", name,
					h.Ceilings[i].Level, h.Ceilings[i].GiBps,
					h.Ceilings[i-1].Level, h.Ceilings[i-1].GiBps)
			}
		}
		prof.Roofline.Hierarchical = nil
	}
	b, err := json.Marshal(prof)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	return b
}

// TestHierarchicalRooflineInvariance is the differential acceptance
// check of the hierarchical roofline: for every workload in the
// catalog, a profile collected with per-level attribution on must be
// byte-identical to the legacy profile once the purely-additive
// hierarchical key is stripped — across counting, overflow sampling,
// roofline and topdown collection. This is what licenses the traffic
// probe and byte counters to live on the hot path: they are
// observation, never perturbation.
func TestHierarchicalRooflineInvariance(t *testing.T) {
	t.Run("superblocks", func(t *testing.T) {
		for _, name := range workloads.Names() {
			t.Run(name, func(t *testing.T) {
				legacy := hierProfileJSON(t, name, false)
				stripped := hierProfileJSON(t, name, true)
				if string(legacy) != string(stripped) {
					t.Errorf("legacy profile diverges when hierarchical collection is armed\noff: %s\non:  %s",
						legacy, stripped)
				}
			})
		}
	})
}

// memboundGolden pins each memory-bound suite member's profile shape:
// whether the kernel carries FLOPs, and what the collectors must say
// about it on the X60 at catalog sizing.
var memboundGolden = []struct {
	name  string
	flops bool // FLOP-bearing (stream_scale FMul, stream_add FAdd, spmv FMA)
}{
	{"stream_copy", false},
	{"stream_scale", true},
	{"stream_add", true},
	{"gather", false},
	{"scatter", false},
	{"spmv", true},
	{"ptrchase", false},
}

// TestMemboundGoldenProfiles runs stat, roofline and topdown over every
// suite workload and pins the characteristic profile: real memory
// traffic in the counters, Backend Bound dominance in the TMA
// classification (these are the suite's reason to exist), per-level
// points obeying the conservation ordering, and — run twice — exact
// byte-level determinism.
func TestMemboundGoldenProfiles(t *testing.T) {
	profile := func(t *testing.T, name string) (*mperf.Profile, []byte) {
		sess := catalogSession(t, name,
			mperf.WithProgramCache(mperf.NewProgramCache()),
			mperf.WithHierarchicalRoofline())
		prof, err := sess.Run(mperf.MustCollectors("stat", "roofline", "topdown")...)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if err := prof.Err(); err != nil {
			t.Fatalf("collector errors: %v", err)
		}
		prof.CompileStats = nil
		b, err := json.Marshal(prof)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return prof, b
	}
	for _, g := range memboundGolden {
		t.Run(g.name, func(t *testing.T) {
			prof, first := profile(t, g.name)

			// Stat: the kernel actually ran and missed the caches.
			if prof.Events["instructions"] == 0 || prof.IPC <= 0 {
				t.Errorf("stat empty: events=%v ipc=%v", prof.Events, prof.IPC)
			}
			if prof.Events["cache-misses"] == 0 {
				t.Error("a memory-bound kernel recorded zero cache misses")
			}

			// TopDown: the suite exists to give TMA genuinely
			// memory-bound cases — every member must classify Backend
			// Bound on the in-order X60.
			if prof.TopDown.Dominant != "Backend Bound" {
				t.Errorf("dominant = %q, want Backend Bound", prof.TopDown.Dominant)
			}

			// Roofline: one measured region per kernel, classified
			// memory-bound when it carries FLOPs.
			r := prof.Roofline
			if len(r.Points) == 0 {
				t.Fatal("no roofline regions measured")
			}
			for _, pt := range r.Points {
				if g.flops {
					if pt.GFLOPS <= 0 || pt.Bound != "memory-bound" {
						t.Errorf("FLOP-bearing kernel point %+v; want GFLOPS>0, memory-bound", pt)
					}
				} else if pt.GFLOPS != 0 {
					t.Errorf("zero-FLOP kernel reports %v GFLOP/s", pt.GFLOPS)
				}
			}

			// Hierarchical points: L1/L2/DRAM in order, real traffic at
			// every level, DRAM never exceeding the L1<->L2 bus, and the
			// suite sized so DRAM is the binding ceiling throughout.
			h := r.Hierarchical
			if h == nil || len(h.Points) == 0 {
				t.Fatal("no hierarchical points")
			}
			for _, pt := range h.Points {
				if len(pt.Levels) != 3 || pt.Levels[0].Level != "L1" ||
					pt.Levels[1].Level != "L2" || pt.Levels[2].Level != "DRAM" {
					t.Fatalf("levels malformed: %+v", pt.Levels)
				}
				l1, l2, dram := pt.Levels[0], pt.Levels[1], pt.Levels[2]
				if l1.Bytes == 0 || l2.Bytes == 0 || dram.Bytes == 0 {
					t.Errorf("level with zero traffic: %+v", pt.Levels)
				}
				if dram.Bytes > l2.Bytes {
					t.Errorf("DRAM bytes %d exceed L1<->L2 bus bytes %d", dram.Bytes, l2.Bytes)
				}
				// L1-vs-L2 bytes have no fixed order (writebacks can push
				// the bus above demand traffic), but DRAM ≤ L2 bytes means
				// AI at L2 never exceeds AI at DRAM.
				if g.flops && (l1.AI <= 0 || l2.AI > dram.AI) {
					t.Errorf("per-level AI malformed (want L1 > 0, L2 ≤ DRAM): %+v", pt.Levels)
				}
				if pt.Bound != "DRAM" {
					t.Errorf("bound = %q, want DRAM at catalog sizing", pt.Bound)
				}
			}

			// Determinism: an identical fresh session reproduces the
			// profile byte-for-byte.
			_, second := profile(t, g.name)
			if string(first) != string(second) {
				t.Errorf("profile not deterministic\nfirst:  %s\nsecond: %s", first, second)
			}
		})
	}
}
