package mperf

import (
	"fmt"
	"os"
	"sync"

	"mperf/internal/vm"
	"mperf/pkg/mperf/store"
)

// CacheDirEnv is the environment variable that attaches a persistent
// artifact directory to the default program cache.
const CacheDirEnv = "MPERF_CACHE_DIR"

func envCacheDir() string { return os.Getenv(CacheDirEnv) }

// ProgramKey identifies one compiled artifact in a ProgramCache. It is
// the "plan key" of a build: everything that shapes the immutable
// vm.Program and nothing that doesn't. Platform identity deliberately
// enters only through the pipeline configuration (Profile, Lanes) —
// an unoptimized build is platform-portable, so paired-platform
// studies (Table 2's X60-vs-i5 runs) share one compile.
type ProgramKey struct {
	// Workload is the registry name ("sqlite", "matmul", ...).
	Workload string
	// Params is the canonical workloads.Params fingerprint.
	Params string
	// Profile and Lanes describe the vectorizer pipeline the module
	// went through; both are zero for unoptimized builds.
	Profile string
	Lanes   int
	// Instrument records whether the roofline instrumentation pass ran.
	Instrument bool
	// Codegen is the VM's codegen tag (vm.CodegenTag()), the plan
	// scheme version. Folding it into the key guarantees a cached
	// program is never reused across a codegen change — in memory and
	// on disk alike, since the disk store addresses entries by this
	// string.
	Codegen string
}

// String renders the key in the canonical form the artifact store
// addresses entries by. The format is part of the on-disk contract:
// changing it orphans (harmlessly — they just stop matching) every
// existing store entry.
func (k ProgramKey) String() string {
	return fmt.Sprintf("wl=%s|params=%s|profile=%s|lanes=%d|instr=%t|cg=%s",
		k.Workload, k.Params, k.Profile, k.Lanes, k.Instrument, k.Codegen)
}

// CompileStats counts how program requests were satisfied — by an
// actual build, by a program already resident in memory, or by loading
// a serialized artifact from the disk store — making the compile-once
// behaviour observable (Profile.CompileStats, -json, /v1/stats).
type CompileStats struct {
	// Compiled is the number of programs actually built (including
	// builds that failed; failures are never cached).
	Compiled uint64 `json:"compiled"`
	// CacheHits is the number of builds satisfied by a program resident
	// in memory, including waits on another goroutine's in-flight build
	// that succeeded.
	CacheHits uint64 `json:"cache_hits"`
	// DiskHits is the number of builds satisfied by deserializing an
	// artifact from the attached disk store instead of compiling.
	DiskHits uint64 `json:"disk_hits,omitempty"`
	// FailedWaits counts waits on another goroutine's in-flight build
	// that then failed. They are neither compiles nor hits: the waiter
	// got an error and no program, so counting them as CacheHits (as a
	// previous version did) inflated the hit rate under fault injection.
	FailedWaits uint64 `json:"failed_waits,omitempty"`
}

// CacheStats is a ProgramCache's cumulative view of itself: the
// compile/hit counters plus the number of resident programs. It is
// the one source of truth behind the daemon's /v1/stats endpoint and
// the matrix verb's cache summary — per-profile CompileStats report a
// run's delta, CacheStats the cache's life-to-date totals.
type CacheStats struct {
	CompileStats
	// Size is the number of cached programs, counting in-flight builds.
	Size int `json:"size"`
}

// String renders the counters for log lines.
func (s CacheStats) String() string {
	return fmt.Sprintf("%s, %d resident", s.CompileStats, s.Size)
}

// HitRate returns the fraction of successful program requests served
// without compiling — from memory or disk — or 0 when nothing ran.
func (s CompileStats) HitRate() float64 {
	total := s.Compiled + s.CacheHits + s.DiskHits
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits+s.DiskHits) / float64(total)
}

// ProgramSource says how a ProgramCache.Get was satisfied.
type ProgramSource int

const (
	// SourceCompiled means the build function ran (and, on error, that
	// it ran and failed, or that a wait on someone else's run failed).
	SourceCompiled ProgramSource = iota
	// SourceMemory means a program already resident in the cache was
	// returned, including waiting on an in-flight build.
	SourceMemory
	// SourceDisk means the program was deserialized from the attached
	// artifact store instead of being compiled.
	SourceDisk
)

// cacheEntry is one in-flight or finished compile. done closes when
// prog/err are settled, giving singleflight semantics without a
// per-key goroutine.
type cacheEntry struct {
	done chan struct{}
	prog *vm.Program
	err  error
}

// ProgramCache deduplicates program compilation across sessions,
// sweeps and experiments. Concurrent Gets for the same key collapse
// into a single build (the first caller compiles, the rest wait on the
// result), so a matrix sweep compiles each distinct program exactly
// once no matter how its cells are scheduled.
//
// A cache optionally persists below itself: SetArtifactDir attaches a
// content-addressed disk store, making misses three-tiered — memory,
// then a checksummed serialized artifact on disk, then an actual
// compile (whose result is written back through to disk). The disk
// tier is consulted inside the singleflight slot, so concurrent misses
// still collapse to one load or one build.
//
// Sessions use the process-wide default cache unless WithProgramCache
// overrides it. Entries are held until Reset — programs are small
// (plans plus the seeded data image) and the catalog is finite.
type ProgramCache struct {
	mu      sync.Mutex
	entries map[ProgramKey]*cacheEntry
	stats   CompileStats
	store   *store.Store
}

// NewProgramCache returns an empty, memory-only cache.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{entries: make(map[ProgramKey]*cacheEntry)}
}

// defaultProgramCache backs every session that does not bring its own.
var defaultProgramCache = NewProgramCache()

// defaultCacheEnv attaches MPERF_CACHE_DIR to the default cache the
// first time anyone resolves it, so plain CLI invocations get
// persistent warm starts without code changes. Private caches
// (WithProgramCache) are never touched — tests stay hermetic.
var defaultCacheEnv sync.Once

func defaultCache() *ProgramCache {
	defaultCacheEnv.Do(func() {
		if dir := envCacheDir(); dir != "" {
			// Env-driven attach is best-effort: an unusable directory
			// must not break profiling, it just disables persistence.
			_ = defaultProgramCache.SetArtifactDir(dir)
		}
	})
	return defaultProgramCache
}

// DefaultProgramCache returns the process-wide cache shared by all
// sessions opened without WithProgramCache. If MPERF_CACHE_DIR is set,
// the first resolution attaches it as the cache's artifact directory.
func DefaultProgramCache() *ProgramCache { return defaultCache() }

// SetArtifactDir attaches a persistent artifact store rooted at dir as
// the cache's disk tier (creating the directory if needed), or
// detaches the store when dir is empty. Attaching does not migrate or
// validate existing entries; they are verified lazily, per load.
func (c *ProgramCache) SetArtifactDir(dir string) error {
	if dir == "" {
		c.mu.Lock()
		c.store = nil
		c.mu.Unlock()
		return nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("mperf: %w", err)
	}
	c.mu.Lock()
	c.store = st
	c.mu.Unlock()
	return nil
}

// ArtifactDir returns the attached store's root directory, or "" when
// the cache is memory-only.
func (c *ProgramCache) ArtifactDir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == nil {
		return ""
	}
	return c.store.Dir()
}

// Get returns the program for key, invoking build at most once per key
// while the build is in flight or once it has succeeded. src reports
// how the request was satisfied: an in-memory program (including
// waiting on another goroutine's in-flight build), a deserialized
// artifact from the disk store, or an actual compile. A failed build
// is reported to the caller and any waiters but not cached: failures
// may be transient — a contained compile panic, an injected chaos
// fault — so a later Get retries the build instead of serving a
// poisoned entry forever.
func (c *ProgramCache) Get(key ProgramKey, build func() (*vm.Program, error)) (prog *vm.Program, src ProgramSource, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		c.mu.Lock()
		if e.err != nil {
			// The build this caller piled onto failed: no program was
			// served, so this is not a cache hit.
			c.stats.FailedWaits++
			c.mu.Unlock()
			return nil, SourceCompiled, e.err
		}
		c.stats.CacheHits++
		c.mu.Unlock()
		return e.prog, SourceMemory, nil
	}
	st := c.store
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	// This goroutine owns the singleflight slot for key. Try the disk
	// tier first; any failure there — missing entry, corruption, a
	// foreign format version, a decode error — falls through to a
	// silent recompile, which then refreshes the disk entry. The loaded
	// payload is a buffer nobody else holds, so the decoded program may
	// keep its data image in place.
	src = SourceCompiled
	if st != nil {
		if payload, lerr := st.Load(key.String()); lerr == nil {
			if loaded, derr := vm.DecodeArtifact(payload); derr == nil {
				e.prog, src = loaded, SourceDisk
			}
		}
	}
	if e.prog == nil {
		e.prog, e.err = build()
		if e.err == nil && st != nil {
			// Write-through is best-effort: a read-only or full disk
			// costs persistence, never correctness. The data image goes
			// to disk as its own part, straight from the program.
			if head, img, eerr := vm.EncodeArtifactParts(e.prog); eerr == nil {
				_ = st.Save(key.String(), head, img)
			}
		}
	}

	c.mu.Lock()
	switch {
	case e.err != nil:
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.stats.Compiled++
	case src == SourceDisk:
		c.stats.DiskHits++
	default:
		c.stats.Compiled++
	}
	c.mu.Unlock()
	close(e.done)
	return e.prog, src, e.err
}

// Stats returns the cache's cumulative compile/hit/size counters.
func (c *ProgramCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{CompileStats: c.stats, Size: len(c.entries)}
}

// Len returns the number of cached programs (including in-flight
// builds).
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset returns the cache to a fully cold, memory-only state: every
// cached program is dropped, the counters zero, and the disk store —
// if one was attached — detaches, so a post-Reset build really builds
// instead of being satisfied by a stale on-disk artifact (chaos tests
// and compile-fault injection depend on this). Re-attach persistence
// with SetArtifactDir. Reset must not race with in-flight Gets that
// expect their entries to persist; callers sequence Reset between
// runs.
func (c *ProgramCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[ProgramKey]*cacheEntry)
	c.stats = CompileStats{}
	c.store = nil
}

// ResetMemory drops every resident program and zeroes the counters but
// keeps the disk store attached — the warm-start state a fresh process
// pointed at an existing artifact directory boots into. The same
// sequencing rule as Reset applies.
func (c *ProgramCache) ResetMemory() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[ProgramKey]*cacheEntry)
	c.stats = CompileStats{}
}

// String renders the counters for log lines.
func (s CompileStats) String() string {
	out := fmt.Sprintf("%d compiled, %d cache hits", s.Compiled, s.CacheHits)
	if s.DiskHits > 0 {
		out += fmt.Sprintf(", %d disk hits", s.DiskHits)
	}
	if s.FailedWaits > 0 {
		out += fmt.Sprintf(", %d failed waits", s.FailedWaits)
	}
	return out
}
