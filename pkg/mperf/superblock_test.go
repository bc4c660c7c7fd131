package mperf_test

import (
	"encoding/json"
	"strings"
	"testing"

	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// catalogSession opens a session for one catalog workload with small,
// fully pinned parameters plus a sampling frequency high enough that
// the record collector fires plenty of overflow samples.
func catalogSession(t *testing.T, name string, opts ...mperf.Option) *mperf.Session {
	t.Helper()
	opts = append([]mperf.Option{
		mperf.WithElems(4096), mperf.WithMemsetWords(4096),
		mperf.WithMatmulSize(24, 8),
		mperf.WithSqliteConfig(workloads.SqliteConfig{
			ProgLen: 24, Rows: 8, Queries: 2, CellArea: 256, TextArea: 256, PatLen: 4,
		}),
		mperf.WithSampleFreq(40_000),
	}, opts...)
	sess, err := mperf.Open("x60", name, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sess
}

// TestProgramKeyCodegen pins that the plan key is versioned by the VM
// codegen: every key carries the single codegen tag, so a cached
// artifact can never be reused across a codegen change.
func TestProgramKeyCodegen(t *testing.T) {
	sess := catalogSession(t, "dot")
	for _, flavor := range []struct{ optimize, instrument bool }{{false, false}, {true, false}, {false, true}} {
		key := sess.ProgramKey(flavor.optimize, flavor.instrument)
		if key.Codegen != vm.CodegenTag() || key.Codegen != "cg3" {
			t.Errorf("%+v: codegen tag = %q, want %q = cg3", flavor, key.Codegen, vm.CodegenTag())
		}
		if !strings.HasSuffix(key.String(), "|cg=cg3") {
			t.Errorf("%+v: store key %q does not end in the codegen tag", flavor, key.String())
		}
	}
}

// TestExecStatsCoverage checks the -vm-stats plumbing: the
// session-level accumulator reports fused coverage after the
// collectors release their machines, and none of it leaks into the
// Profile JSON (TestSuperblockInvariance in internal/vm pins the
// latter bit-exactly).
func TestExecStatsCoverage(t *testing.T) {
	var st mperf.ExecStats
	sess := catalogSession(t, "dot",
		mperf.WithProgramCache(mperf.NewProgramCache()), mperf.WithExecStats(&st))
	prof, err := sess.Run(mperf.MustCollectors("stat")...)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Err(); err != nil {
		t.Fatal(err)
	}
	total, fusedN := st.TotalSteps.Load(), st.FusedSteps.Load()
	if total == 0 || fusedN == 0 {
		t.Fatalf("coverage counters empty: total=%d fused=%d", total, fusedN)
	}
	if fusedN > total {
		t.Fatalf("fused steps %d exceed total %d", fusedN, total)
	}
	if fusedN*10 < total*9 {
		t.Errorf("fused coverage %d/%d below 90%%", fusedN, total)
	}
	b, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"fused", "vm_stats", "exec_stats"} {
		if strings.Contains(string(b), needle) {
			t.Errorf("profile JSON leaks %q: %s", needle, b)
		}
	}
}

// TestKernelCoverage pins that the specialized loop kernels actually
// engage on the streaming and matmul workloads — their hot self-loops
// are exactly the shapes the matcher exists for, so a silent decline
// (vocabulary drift, phi-copy hazard) fails loudly here rather than
// showing up only as a benchmark regression.
func TestKernelCoverage(t *testing.T) {
	for _, name := range []string{"triad", "memset", "matmul"} {
		t.Run(name, func(t *testing.T) {
			var st mperf.ExecStats
			sess := catalogSession(t, name,
				mperf.WithProgramCache(mperf.NewProgramCache()), mperf.WithExecStats(&st))
			prof, err := sess.Run(mperf.MustCollectors("stat")...)
			if err != nil {
				t.Fatal(err)
			}
			if err := prof.Err(); err != nil {
				t.Fatal(err)
			}
			if hits, iters := st.KernelHits.Load(), st.KernelIters.Load(); hits == 0 || iters == 0 {
				t.Errorf("specialized kernels never engaged: hits=%d iters=%d (total=%d fused=%d)",
					hits, iters, st.TotalSteps.Load(), st.FusedSteps.Load())
			}
		})
	}
}

// TestSamplingRunsFused pins that sampling activations run on the
// superblock dispatch loop: a record-only run, whose every activation
// starts with an overflow sampler armed, executes every step through
// superblock regions.
func TestSamplingRunsFused(t *testing.T) {
	for _, name := range []string{"matmul", "sqlite"} {
		t.Run(name, func(t *testing.T) {
			var st mperf.ExecStats
			sess := catalogSession(t, name,
				mperf.WithProgramCache(mperf.NewProgramCache()), mperf.WithExecStats(&st))
			prof, err := sess.Run(mperf.MustCollectors("record")...)
			if err != nil {
				t.Fatal(err)
			}
			if err := prof.Err(); err != nil {
				t.Fatal(err)
			}
			total, fusedN := st.TotalSteps.Load(), st.FusedSteps.Load()
			if total == 0 || fusedN != total {
				t.Errorf("record run: fused %d of %d steps, want all of them", fusedN, total)
			}
		})
	}
}
