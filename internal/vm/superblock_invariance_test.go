package vm_test

import (
	"encoding/json"
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

// catalogProfileJSON runs every collector mode over one workload and
// returns the canonical Profile JSON, with the compile accounting
// (which legitimately differs between cold and warm caches) stripped.
func catalogProfileJSON(t *testing.T, name string) []byte {
	t.Helper()
	sess := catalogSession(t, name, mperf.WithProgramCache(mperf.NewProgramCache()))
	prof, err := sess.Run(mperf.MustCollectors("stat", "record", "roofline", "topdown")...)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if err := prof.Err(); err != nil {
		t.Fatalf("%s: collector errors: %v", name, err)
	}
	prof.CompileStats = nil
	b, err := json.Marshal(prof)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	return b
}

// TestSuperblockInvariance is the differential acceptance check of the
// superblock executor: for every workload in the catalog, a run with
// superblocks fused must produce bit-identical Profile JSON to a run
// on the per-instruction path — across counting (stat), overflow
// sampling (record), roofline and topdown collection.
func TestSuperblockInvariance(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			fused := catalogProfileJSON(t, name)
			vm.UseReferenceDispatch(t)
			unfused := catalogProfileJSON(t, name)
			if string(fused) != string(unfused) {
				t.Errorf("profiles diverge between superblock and per-instruction execution\nfused:   %s\nunfused: %s",
					fused, unfused)
			}
		})
	}
}
