package mperf_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mperf/internal/ir"
	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
	"mperf/pkg/mperf/store"
)

// buildDot returns a build function for a small dot-product program,
// counting its invocations so tests can pin exactly when the cache
// compiled versus loaded.
func buildDot(t *testing.T, builds *atomic.Int32) func() (*vm.Program, error) {
	t.Helper()
	spec, err := workloads.Lookup("dot", workloads.Params{Elems: 64})
	if err != nil {
		t.Fatal(err)
	}
	return func() (*vm.Program, error) {
		builds.Add(1)
		return spec.BuildProgram(platform.X60(), false, false)
	}
}

var diskKey = mperf.ProgramKey{Workload: "dot", Params: "disk-test", Codegen: vm.CodegenTag()}

// TestCacheDiskTier pins the three-tier lifecycle: a miss compiles and
// writes through to disk; a fresh cache over the same directory (a new
// process, in effect) satisfies the same key from disk without
// building; once resident, further Gets are memory hits.
func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	var builds atomic.Int32
	build := buildDot(t, &builds)

	c1 := mperf.NewProgramCache()
	if err := c1.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := c1.ArtifactDir(); got != dir {
		t.Fatalf("ArtifactDir = %q, want %q", got, dir)
	}
	_, src, err := c1.Get(diskKey, build)
	if err != nil {
		t.Fatal(err)
	}
	if src != mperf.SourceCompiled || builds.Load() != 1 {
		t.Fatalf("first get: src=%v builds=%d, want a compile", src, builds.Load())
	}

	// Simulated process restart: new cache, same directory.
	c2 := mperf.NewProgramCache()
	if err := c2.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	prog, src, err := c2.Get(diskKey, build)
	if err != nil {
		t.Fatal(err)
	}
	if src != mperf.SourceDisk || builds.Load() != 1 {
		t.Fatalf("warm get: src=%v builds=%d, want a disk hit and no new build", src, builds.Load())
	}
	if prog == nil {
		t.Fatal("disk hit returned no program")
	}
	if _, src, _ := c2.Get(diskKey, build); src != mperf.SourceMemory {
		t.Fatalf("resident get: src=%v, want memory", src)
	}
	st := c2.Stats()
	if st.Compiled != 0 || st.DiskHits != 1 || st.CacheHits != 1 {
		t.Fatalf("warm cache stats = %+v, want 0 compiled / 1 disk / 1 memory", st)
	}
	if st.HitRate() != 1 {
		t.Fatalf("warm hit rate = %v, want 1 (disk hits count)", st.HitRate())
	}
}

// TestCacheDiskCorruptionRecompiles pins the fallback: corrupting or
// truncating the on-disk artifact silently turns the next cold Get
// into a compile, which then rewrites a good entry.
func TestCacheDiskCorruptionRecompiles(t *testing.T) {
	dir := t.TempDir()
	var builds atomic.Int32
	build := buildDot(t, &builds)

	c := mperf.NewProgramCache()
	if err := c.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(diskKey, build); err != nil {
		t.Fatal(err)
	}

	var entry string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".mpa") {
			entry = path
		}
		return nil
	})
	if entry == "" {
		t.Fatal("compile did not write through to the store")
	}
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	mangled := append([]byte(nil), data...)
	mangled[len(mangled)/2] ^= 0x5a
	if err := os.WriteFile(entry, mangled, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := mperf.NewProgramCache()
	if err := fresh.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, src, err := fresh.Get(diskKey, build); err != nil || src != mperf.SourceCompiled {
		t.Fatalf("corrupt entry: src=%v err=%v, want a silent recompile", src, err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (cold + recompile)", builds.Load())
	}

	// The recompile refreshed the entry: yet another cold cache now
	// disk-hits again.
	again := mperf.NewProgramCache()
	if err := again.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, src, err := again.Get(diskKey, build); err != nil || src != mperf.SourceDisk {
		t.Fatalf("refreshed entry: src=%v err=%v, want a disk hit", src, err)
	}
}

// version1Artifact lays out prog by hand in the version-1 artifact
// format: version byte, superblock flag, hot-function flag, then the
// module and the data image, each behind a uvarint length.
func version1Artifact(t *testing.T, prog *vm.Program) []byte {
	t.Helper()
	_, img, err := vm.EncodeArtifactParts(prog)
	if err != nil {
		t.Fatal(err)
	}
	mod := ir.EncodeModule(prog.Module())
	out := []byte{1, 1, 0}
	out = binary.AppendUvarint(out, uint64(len(mod)))
	out = append(out, mod...)
	out = binary.AppendUvarint(out, uint64(len(img)))
	return append(out, img...)
}

// TestCacheDiskVersion1Recompiles pins the artifact-version upgrade
// path: an intact store entry in the version-1 layout fails to decode
// with vm.ErrArtifactVersion, and the cache treats it as a disk miss —
// it recompiles and overwrites the entry in the current layout.
func TestCacheDiskVersion1Recompiles(t *testing.T) {
	dir := t.TempDir()
	var builds atomic.Int32
	build := buildDot(t, &builds)
	prog, err := build()
	if err != nil {
		t.Fatal(err)
	}
	v1 := version1Artifact(t, prog)
	if _, err := vm.DecodeArtifact(v1); !errors.Is(err, vm.ErrArtifactVersion) {
		t.Fatalf("version-1 artifact: decode error %v, want vm.ErrArtifactVersion", err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(diskKey.String(), v1); err != nil {
		t.Fatal(err)
	}

	c := mperf.NewProgramCache()
	if err := c.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, src, err := c.Get(diskKey, build); err != nil || src != mperf.SourceCompiled {
		t.Fatalf("version-1 entry: src=%v err=%v, want a silent recompile", src, err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (setup + recompile)", builds.Load())
	}
	again := mperf.NewProgramCache()
	if err := again.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, src, err := again.Get(diskKey, build); err != nil || src != mperf.SourceDisk {
		t.Fatalf("rewritten entry: src=%v err=%v, want a disk hit", src, err)
	}
}

// TestCacheResetDetachesStore pins the chaos-safety satellite: Reset
// returns the cache to a memory-only cold state, so a post-Reset build
// cannot be satisfied by a stale on-disk artifact (fault injection on
// the compile path must actually fire).
func TestCacheResetDetachesStore(t *testing.T) {
	dir := t.TempDir()
	var builds atomic.Int32
	build := buildDot(t, &builds)

	c := mperf.NewProgramCache()
	if err := c.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(diskKey, build); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if got := c.ArtifactDir(); got != "" {
		t.Fatalf("ArtifactDir after Reset = %q, want detached", got)
	}
	if _, src, err := c.Get(diskKey, build); err != nil || src != mperf.SourceCompiled {
		t.Fatalf("post-Reset get: src=%v err=%v, want a real compile", src, err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (Reset must not serve the stale artifact)", builds.Load())
	}

	// ResetMemory, by contrast, keeps persistence: the store stays
	// attached and the next cold Get disk-hits.
	if err := c.SetArtifactDir(dir); err != nil {
		t.Fatal(err)
	}
	c.ResetMemory()
	if got := c.ArtifactDir(); got != dir {
		t.Fatalf("ArtifactDir after ResetMemory = %q, want %q", got, dir)
	}
	if _, src, err := c.Get(diskKey, build); err != nil || src != mperf.SourceDisk {
		t.Fatalf("post-ResetMemory get: src=%v err=%v, want a disk hit", src, err)
	}
	if st := c.Stats(); st.Compiled != 0 || st.DiskHits != 1 {
		t.Fatalf("post-ResetMemory stats = %+v, want counters rezeroed then 1 disk hit", st)
	}
}

// TestFailedWaitNotACacheHit pins the accounting fix: goroutines that
// pile onto an in-flight build that then fails are counted as
// FailedWaits, not CacheHits — a run where every build fails must
// report a zero hit rate.
func TestFailedWaitNotACacheHit(t *testing.T) {
	cache := mperf.NewProgramCache()
	key := mperf.ProgramKey{Workload: "dot", Params: "failing"}
	boom := errors.New("injected compile failure")

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := cache.Get(key, func() (*vm.Program, error) {
			close(started)
			<-release
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("builder got %v", err)
		}
	}()
	<-started

	const waiters = 4
	var entered sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		entered.Add(1)
		go func() {
			defer wg.Done()
			entered.Done()
			prog, src, err := cache.Get(key, func() (*vm.Program, error) {
				t.Error("waiter ran the build function")
				return nil, boom
			})
			if !errors.Is(err, boom) || prog != nil || src != mperf.SourceCompiled {
				t.Errorf("waiter got prog=%v src=%v err=%v", prog, src, err)
			}
		}()
	}
	entered.Wait()
	// Give the waiters time to reach the in-flight entry before the
	// build resolves; a late waiter would start (and fail) a fresh
	// build, which the build-function assertion above would catch.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	st := cache.Stats()
	if st.CacheHits != 0 {
		t.Errorf("failed waits counted as cache hits: %+v", st)
	}
	if st.FailedWaits != waiters {
		t.Errorf("FailedWaits = %d, want %d", st.FailedWaits, waiters)
	}
	if st.Compiled != 1 {
		t.Errorf("Compiled = %d, want 1", st.Compiled)
	}
	if st.HitRate() != 0 {
		t.Errorf("hit rate = %v, want 0 when every build failed", st.HitRate())
	}
	if cache.Len() != 0 {
		t.Errorf("failed build left %d entries cached", cache.Len())
	}
}

// TestWithArtifactDirOption pins the session-level wiring: a session
// opened with WithArtifactDir persists its compiles, and a second
// session over a fresh cache but the same directory reports the load
// in its profile's CompileStats as a disk hit with zero compiles.
func TestWithArtifactDirOption(t *testing.T) {
	dir := t.TempDir()
	run := func(cache *mperf.ProgramCache) *mperf.CompileStats {
		opts := append(smallOpts(cache), mperf.WithArtifactDir(dir))
		sess, err := mperf.Open("x60", "dot", opts...)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := sess.Run(mperf.MustCollectors("stat")...)
		if err != nil {
			t.Fatal(err)
		}
		if err := prof.Err(); err != nil {
			t.Fatal(err)
		}
		return prof.CompileStats
	}
	cold := run(mperf.NewProgramCache())
	if cold.Compiled == 0 || cold.DiskHits != 0 {
		t.Fatalf("cold run stats = %+v, want compiles and no disk hits", cold)
	}
	warm := run(mperf.NewProgramCache())
	if warm.Compiled != 0 || warm.DiskHits == 0 {
		t.Fatalf("warm run stats = %+v, want zero compiles and disk hits", warm)
	}
}
