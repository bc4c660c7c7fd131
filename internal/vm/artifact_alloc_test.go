package vm_test

import (
	"runtime"
	"testing"

	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// These tests pin that a seeded data image travels from Seed to disk
// and back with one copy on each side: the compile path copies it only
// out of the seed machine, and the load path only out of the file.
// Each budget sits below what one more copy of the image would cost.

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// streamAdd returns the stream_add spec (a data image of several
// hundred KiB) and its raw build function.
func streamAdd(t *testing.T) (*workloads.Spec, func() (*vm.Program, error)) {
	t.Helper()
	spec, err := workloads.Lookup("stream_add", workloads.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return spec, func() (*vm.Program, error) { return spec.BuildProgram(platform.X60(), false, false) }
}

func TestDecodeArtifactDoesNotCopyImage(t *testing.T) {
	_, build := streamAdd(t)
	prog, err := build()
	if err != nil {
		t.Fatal(err)
	}
	img := prog.DataSize()
	if img < 512<<10 {
		t.Fatalf("stream_add image is %d bytes, too small to tell a copy from noise", img)
	}
	data, err := vm.EncodeArtifact(prog)
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	got := allocatedBy(func() { _, derr = vm.DecodeArtifact(data) })
	if derr != nil {
		t.Fatal(derr)
	}
	if got >= uint64(img) {
		t.Errorf("DecodeArtifact allocated %d bytes, want < the %d-byte image it should alias", got, img)
	}
}

func TestColdCacheGetCopiesImageOnce(t *testing.T) {
	spec, build := streamAdd(t)
	probe, err := build()
	if err != nil {
		t.Fatal(err)
	}
	img, seedMem := probe.DataSize(), vm.InstanceMemSize(probe)

	cache := mperf.NewProgramCache()
	if err := cache.SetArtifactDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	key := mperf.ProgramKey{Workload: spec.Name, Params: workloads.Params{}.Fingerprint(), Codegen: vm.CodegenTag()}
	var src mperf.ProgramSource
	var gerr error
	got := allocatedBy(func() { _, src, gerr = cache.Get(key, build) })
	if gerr != nil {
		t.Fatal(gerr)
	}
	if src != mperf.SourceCompiled {
		t.Fatalf("first Get served from %v, want a compile", src)
	}
	if budget := uint64(seedMem + 2*img); got >= budget {
		t.Errorf("cold Get with a store allocated %d bytes, want < %d (seed machine %d + 2 × image %d)",
			got, budget, seedMem, img)
	}
}
