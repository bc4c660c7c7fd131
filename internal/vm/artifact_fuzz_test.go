package vm_test

import (
	"bytes"
	"testing"

	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
)

// FuzzDecodeArtifact feeds arbitrary bytes to DecodeArtifact: it must
// never panic, and any input it accepts must re-encode to exactly the
// same bytes. The corpus is seeded with the artifacts of small catalog
// programs built here (plain, vectorized and instrumented), so no
// binary corpus is kept in the repository.
func FuzzDecodeArtifact(f *testing.F) {
	params := workloads.Params{
		Elems: 64, MatmulN: 16, MatmulTile: 8,
		Sqlite: &workloads.SqliteConfig{ProgLen: 8, Rows: 2, Queries: 1, CellArea: 64, TextArea: 64, PatLen: 2},
	}
	for _, c := range []struct {
		name                 string
		optimize, instrument bool
	}{{"dot", false, false}, {"dot", true, true}, {"matmul", false, true}, {"sqlite", false, false}} {
		spec, err := workloads.Lookup(c.name, params)
		if err != nil {
			f.Fatal(err)
		}
		prog, err := spec.BuildProgram(platform.X60(), c.optimize, c.instrument)
		if err != nil {
			f.Fatal(err)
		}
		data, err := vm.EncodeArtifact(prog)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := vm.DecodeArtifact(data)
		if err != nil {
			return
		}
		again, err := vm.EncodeArtifact(prog)
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding a decoded artifact changed its bytes:\nin:  %x\nout: %x", data, again)
		}
	})
}
