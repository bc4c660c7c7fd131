package ir_test

import (
	"testing"

	"mperf/internal/ir"
	"mperf/internal/workloads"
)

// FuzzParse drives the textual IR parser that cmd/mpc reads. Parse must
// never panic, and any text that parses and verifies must print to a
// fixed point: printing the module, re-parsing that text and printing
// again gives the same text. The corpus is seeded from every catalog
// workload's module, built inside the test and printed.
func FuzzParse(f *testing.F) {
	params := workloads.Params{
		Elems: 64, MatmulN: 16, MatmulTile: 8,
		Sqlite: &workloads.SqliteConfig{ProgLen: 8, Rows: 2, Queries: 1, CellArea: 64, TextArea: 64, PatLen: 2},
	}
	for _, name := range workloads.Names() {
		spec, err := workloads.Lookup(name, params)
		if err != nil {
			f.Fatal(err)
		}
		m := ir.NewModule(name)
		if err := spec.Build(m); err != nil {
			f.Fatalf("%s: build: %v", name, err)
		}
		f.Add(ir.Print(m))
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil || ir.Verify(m) != nil {
			return
		}
		text := ir.Print(m)
		again, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("printed module does not re-parse: %v\n%s", err, text)
		}
		if got := ir.Print(again); got != text {
			t.Fatalf("print→parse→print not stable:\n--- first\n%s\n--- second\n%s", text, got)
		}
	})
}
