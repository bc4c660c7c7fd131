package vm_test

import (
	"strings"
	"testing"

	"mperf/internal/isa"
	"mperf/internal/machine"
	"mperf/internal/miniperf"
	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
)

// TestTrapFlushesCounters pins that a run stopped by a trap still
// delivers everything the core charged before it: counting around a
// stream_add run cut short by the step budget, every counter must equal
// the core's own Stats delta over the run, on the in-order and the
// out-of-order model, in both codegen modes, for a time-only event set
// and for one that also counts branches and cache events.
func TestTrapFlushesCounters(t *testing.T) {
	spec, err := workloads.Lookup("stream_add", workloads.Params{Elems: 4096})
	if err != nil {
		t.Fatal(err)
	}
	eventSets := map[string][]isa.EventCode{
		"time": {isa.EventCycles, isa.EventInstructions},
		"mixed": {isa.EventCycles, isa.EventInstructions, isa.EventBranchInstructions,
			isa.EventBranchMisses, isa.EventCacheReferences, isa.EventCacheMisses},
	}
	want := func(before, after machine.Stats) map[string]uint64 {
		return map[string]uint64{
			isa.EventCycles.String():             after.Cycles - before.Cycles,
			isa.EventInstructions.String():       after.Instret - before.Instret,
			isa.EventBranchInstructions.String(): after.Branches - before.Branches,
			isa.EventBranchMisses.String():       after.Mispredicts - before.Mispredicts,
			isa.EventCacheReferences.String():    after.Loads + after.Stores - before.Loads - before.Stores,
			isa.EventCacheMisses.String():        after.L1DMisses - before.L1DMisses,
		}
	}
	for _, codegen := range []string{"superblocks", "per-instruction"} {
		if codegen == "per-instruction" {
			t.Setenv("MPERF_NO_SUPERBLOCK", "1")
		}
		for _, plat := range []*platform.Platform{platform.X60(), platform.I5_1135G7()} {
			prog, err := spec.BuildProgram(plat, false, false)
			if err != nil {
				t.Fatal(err)
			}
			for name, events := range eventSets {
				t.Run(codegen+"/"+plat.Name+"/"+name, func(t *testing.T) {
					m := vm.NewMachine(prog, plat)
					defer m.Release()
					m.MaxSteps = 20_000
					tool, err := miniperf.Attach(m)
					if err != nil {
						t.Fatal(err)
					}
					core := m.Hart().Core
					before := core.Stats()
					res, err := tool.Stat(events, func() error { return spec.Run(m) })
					if err == nil || !strings.Contains(err.Error(), "step budget") {
						t.Fatalf("run was not stopped by the step budget: %v", err)
					}
					after := core.Stats()
					if after.Cycles == before.Cycles {
						t.Fatal("the core charged nothing before the trap")
					}
					exp := want(before, after)
					for _, ev := range events {
						label := ev.String()
						if got := res.Values[label]; got != exp[label] {
							t.Errorf("%s = %d, the core charged %d", label, got, exp[label])
						}
					}
				})
			}
		}
	}
}
