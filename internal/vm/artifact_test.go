package vm

import (
	"strings"
	"testing"

	"mperf/internal/ir"
	"mperf/internal/platform"
)

// compileSum compiles the shared sum module with a baked data image,
// mirroring what workloads.BuildProgram produces.
func compileSum(t *testing.T, n int) *Program {
	t.Helper()
	prog, err := Compile(buildSumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, platform.X60())
	fillSumData(t, m, n)
	if err := prog.SetDataImage(m.SnapshotData()); err != nil {
		t.Fatal(err)
	}
	m.Release()
	return prog
}

// runSum executes the program once and returns the architectural
// outcome (result bits plus retired cycle/instruction counts).
func runSumProg(t *testing.T, prog *Program, n int) archResult {
	t.Helper()
	m := NewMachine(prog, platform.X60())
	defer m.Release()
	addr, err := prog.GlobalAddr("data")
	if err != nil {
		t.Fatal(err)
	}
	bits, err := m.Run("sum", addr, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	st := m.Hart().Core.Stats()
	return archResult{bits: bits, cycles: st.Cycles, instret: st.Instret}
}

// TestArtifactRoundTrip pins that a program decoded from its artifact
// behaves architecturally identically to the original — same result
// bits, same cycle and instruction counts — with the baked data image
// intact.
func TestArtifactRoundTrip(t *testing.T) {
	const n = 512
	t.Run("superblocks", func(t *testing.T) {
		prog := compileSum(t, n)
		want := runSumProg(t, prog, n)

		data, err := EncodeArtifact(prog)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := DecodeArtifact(data)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.DataSize() != prog.DataSize() {
			t.Fatalf("data size changed: %d != %d", loaded.DataSize(), prog.DataSize())
		}
		got := runSumProg(t, loaded, n)
		if got != want {
			t.Fatalf("decoded program diverges: got %+v, want %+v", got, want)
		}

		// The artifact encoding itself must be stable: re-encoding
		// the decoded program reproduces the identical bytes (the
		// content-addressed store relies on this).
		data2, err := EncodeArtifact(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if string(data2) != string(data) {
			t.Fatal("artifact encoding is not stable across a round trip")
		}
	})
}

// TestArtifactDecodeRejects pins the decoder's failure modes: version
// mismatches, truncations and trailing garbage all return errors (and
// never panic), so the artifact store can fall back to a recompile.
func TestArtifactDecodeRejects(t *testing.T) {
	prog := compileSum(t, 128)
	data, err := EncodeArtifact(prog)
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), data...)
	bad[0] = ArtifactVersion + 1
	if _, err := DecodeArtifact(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}

	if _, err := DecodeArtifact(append(append([]byte(nil), data...), 0xAA)); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	for _, cut := range []int{0, 1, 2, 3, len(data) / 2, len(data) - 1} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode of %d-byte truncation panicked: %v", cut, r)
				}
			}()
			if _, err := DecodeArtifact(data[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}()
	}
}

// TestArtifactPartsConcatenate pins that the two-part encoding is the
// single-buffer encoding split in two, and that its image part is the
// program's own buffer rather than a copy.
func TestArtifactPartsConcatenate(t *testing.T) {
	prog := compileSum(t, 256)
	data, err := EncodeArtifact(prog)
	if err != nil {
		t.Fatal(err)
	}
	head, img, err := EncodeArtifactParts(prog)
	if err != nil {
		t.Fatal(err)
	}
	if string(head)+string(img) != string(data) {
		t.Fatal("head + image differs from EncodeArtifact")
	}
	if len(img) == 0 || &img[0] != &prog.image[0] {
		t.Fatal("image part is not the program's data image")
	}
	if loaded, err := DecodeArtifact(data); err != nil || &loaded.image[0] != &data[len(head)] {
		t.Fatalf("decoded image does not alias the input (err %v)", err)
	}
}

// TestArtifactDecodeVerifies pins that a module which decodes cleanly
// but is not well-formed SSA is rejected: the envelope checksum only
// vouches for the bytes, so the decoder checks the structure itself.
func TestArtifactDecodeVerifies(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("f", ir.Void)
	b := ir.NewBuilder(f)
	b.NewBlock("entry")
	b.Add(ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2)) // no terminator
	data, err := EncodeArtifact(&Program{mod: mod})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeArtifact(data); err == nil || !strings.Contains(err.Error(), "does not verify") {
		t.Fatalf("want a verify error, got %v", err)
	}
}
