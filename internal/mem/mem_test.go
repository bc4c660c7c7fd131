package mem

import (
	"testing"
	"testing/quick"
)

func testCacheConfig() CacheConfig {
	return CacheConfig{Name: "L1D", SizeBytes: 4096, LineSize: 64, Ways: 2, HitLatency: 3}
}

func testHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:  CacheConfig{Name: "L1D", SizeBytes: 4096, LineSize: 64, Ways: 2, HitLatency: 3},
		L2:   CacheConfig{Name: "L2", SizeBytes: 65536, LineSize: 64, Ways: 8, HitLatency: 12},
		DRAM: DRAMConfig{BytesPerCycle: 4, Latency: 80},
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := testCacheConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "z", SizeBytes: 0, LineSize: 64, Ways: 2},
		{Name: "z", SizeBytes: 4096, LineSize: 60, Ways: 2},
		{Name: "z", SizeBytes: 4000, LineSize: 64, Ways: 2},
		{Name: "z", SizeBytes: 64 * 2 * 3, LineSize: 64, Ways: 2}, // 3 sets: not pow2
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := NewCache(testCacheConfig())
	if c.Lookup(0x1000, false) {
		t.Fatal("cold cache must miss")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("line must hit after fill")
	}
	if !c.Lookup(0x1038, false) {
		t.Fatal("same-line offset must hit")
	}
	if c.Lookup(0x1040, false) {
		t.Fatal("next line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: three lines mapping to the same set evict the LRU one.
	c := NewCache(testCacheConfig())
	sets := uint64(c.Sets())
	line := uint64(c.Config().LineSize)
	stride := sets * line // same set index
	a, b, d := uint64(0), stride, 2*stride

	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a, false) // touch a so b becomes LRU
	ev, _, had := c.Fill(d, false)
	if !had {
		t.Fatal("fill into full set must evict")
	}
	if ev != b {
		t.Errorf("evicted %#x, want LRU line %#x", ev, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Error("post-eviction residency wrong")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := NewCache(testCacheConfig())
	stride := uint64(c.Sets() * c.Config().LineSize)
	c.Fill(0, true) // dirty
	c.Fill(stride, false)
	_, dirty, had := c.Fill(2*stride, false)
	if !had || !dirty {
		t.Error("evicting a written line must report dirty")
	}
}

func TestCacheWriteMarksDirtyOnHit(t *testing.T) {
	c := NewCache(testCacheConfig())
	stride := uint64(c.Sets() * c.Config().LineSize)
	c.Fill(0, false)
	c.Lookup(0, true) // dirty it via write hit
	c.Fill(stride, false)
	c.Lookup(stride, false)
	c.Lookup(stride, false) // make line 0 the LRU victim
	_, dirty, had := c.Fill(2*stride, false)
	if !had || !dirty {
		t.Error("write hit must mark line dirty for later eviction")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(testCacheConfig())
	c.Fill(0x40, false)
	c.Lookup(0x40, false)
	c.Reset()
	if c.Contains(0x40) {
		t.Error("reset must invalidate lines")
	}
}

func TestCacheFillThenLookupProperty(t *testing.T) {
	c := NewCache(CacheConfig{Name: "p", SizeBytes: 8192, LineSize: 64, Ways: 4, HitLatency: 1})
	if err := quick.Check(func(addr uint64) bool {
		c.Fill(addr, false)
		return c.Lookup(addr, false)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCacheSetBoundProperty(t *testing.T) {
	// Property: filling N distinct lines never exceeds capacity in
	// residency — at most Sets*Ways lines can be Contains() at once.
	c := NewCache(testCacheConfig())
	capacity := c.Sets() * c.Config().Ways
	line := uint64(c.Config().LineSize)
	for i := 0; i < 4*capacity; i++ {
		c.Fill(uint64(i)*line, false)
	}
	resident := 0
	for i := 0; i < 4*capacity; i++ {
		if c.Contains(uint64(i) * line) {
			resident++
		}
	}
	if resident > capacity {
		t.Errorf("%d lines resident, capacity %d", resident, capacity)
	}
}

func TestDRAMBandwidthSaturation(t *testing.T) {
	d := NewDRAM(DRAMConfig{BytesPerCycle: 4, Latency: 10})
	// Issue back-to-back 64-byte transfers at cycle 0; each occupies 16
	// cycles of channel time, so the Nth completes no earlier than 16N.
	var last uint64
	for i := 0; i < 10; i++ {
		last = d.Transfer(0, 64)
	}
	if want := uint64(10*16 + 10); last != want {
		t.Errorf("10th transfer latency = %d, want %d", last, want)
	}
	if d.Bytes != 640 {
		t.Errorf("bytes = %d, want 640", d.Bytes)
	}
}

func TestDRAMIdleLatency(t *testing.T) {
	d := NewDRAM(DRAMConfig{BytesPerCycle: 8, Latency: 100})
	lat := d.Transfer(1000, 64)
	if want := uint64(100 + 8); lat != want {
		t.Errorf("idle latency = %d, want %d", lat, want)
	}
	// A second transfer much later sees an idle channel again.
	lat = d.Transfer(1_000_000, 64)
	if want := uint64(100 + 8); lat != want {
		t.Errorf("idle latency after gap = %d, want %d", lat, want)
	}
}

func TestHierarchyColdThenWarm(t *testing.T) {
	h := NewHierarchy(testHierarchyConfig())
	cold := h.Access(0, 0x2000, 8, false)
	coldDRAM := h.DRAM().Bytes
	if !cold.L1Miss || !cold.L2Miss || coldDRAM == 0 {
		t.Errorf("cold access should miss everywhere: %+v, %d DRAM bytes", cold, coldDRAM)
	}
	warm := h.Access(100, 0x2000, 8, false)
	if warm.L1Miss || h.DRAM().Bytes != coldDRAM {
		t.Errorf("warm access should hit L1: %+v, %d DRAM bytes", warm, h.DRAM().Bytes-coldDRAM)
	}
	if warm.Latency != h.L1D().Config().HitLatency {
		t.Errorf("warm latency = %d, want L1 hit latency %d",
			warm.Latency, h.L1D().Config().HitLatency)
	}
}

func TestHierarchyL2HitAfterL1Eviction(t *testing.T) {
	cfg := testHierarchyConfig()
	h := NewHierarchy(cfg)
	// Touch enough distinct lines to blow L1 (4 KiB) but stay in L2 (64 KiB).
	lines := cfg.L1D.SizeBytes / cfg.L1D.LineSize * 4
	for i := 0; i < lines; i++ {
		h.Access(uint64(i*100), uint64(i*cfg.L1D.LineSize), 8, false)
	}
	// Re-access the first line: should be gone from L1 but present in L2.
	r := h.Access(1_000_000, 0, 8, false)
	if !r.L1Miss {
		t.Fatal("expected L1 miss after working set exceeded L1")
	}
	if r.L2Miss {
		t.Fatal("expected L2 hit: working set fits in L2")
	}
	if r.Latency != cfg.L2.HitLatency {
		t.Errorf("latency = %d, want L2 hit latency %d", r.Latency, cfg.L2.HitLatency)
	}
}

func TestHierarchyStraddlingAccess(t *testing.T) {
	h := NewHierarchy(testHierarchyConfig())
	// 8-byte access at line-4 straddles two lines.
	h.Access(0, 60, 8, false)
	if h.DRAM().Bytes != 128 {
		t.Errorf("straddling cold access moved %d DRAM bytes, want 128", h.DRAM().Bytes)
	}
}

func TestHierarchyWriteBackTraffic(t *testing.T) {
	cfg := testHierarchyConfig()
	h := NewHierarchy(cfg)
	// Dirty many lines, then stream far past both cache capacities and
	// confirm write-back traffic shows up.
	total := cfg.L2.SizeBytes * 4
	for a := 0; a < total; a += cfg.L1D.LineSize {
		h.Access(uint64(a), uint64(a), 8, true)
	}
	if h.WriteBacks == 0 {
		t.Error("streaming dirty working set must produce write-backs")
	}
	if h.DRAM().Bytes <= uint64(total) {
		t.Errorf("DRAM bytes %d should exceed fill traffic %d due to write-backs",
			h.DRAM().Bytes, total)
	}
}

// TestHierarchyReset pins the Reset contract: the caches empty, but the
// traffic counters keep running, so deltas taken across a Reset (the
// core's flush marks, the roofline runtime's region snapshots) stay
// exact instead of wrapping around.
func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(testHierarchyConfig())
	h.Access(0, 0, 8, true)
	before := *h
	dram := h.DRAM().Bytes
	h.Reset()
	if h.L1Accesses != before.L1Accesses || h.L1Bytes != before.L1Bytes ||
		h.L2Bytes != before.L2Bytes || h.DRAM().Bytes != dram {
		t.Error("reset must leave the traffic counters running")
	}
	r := h.Access(0, 0, 8, false)
	if !r.L1Miss {
		t.Error("reset must invalidate cache contents")
	}
	if h.L1Accesses != before.L1Accesses+1 || h.L1Bytes != 2*before.L1Bytes ||
		h.L2Bytes != 2*before.L2Bytes || h.DRAM().Bytes != 2*dram {
		t.Errorf("counters after reset = %d accesses, %d/%d/%d B; want the cold access counted again on top",
			h.L1Accesses, h.L1Bytes, h.L2Bytes, h.DRAM().Bytes)
	}
}

func TestHierarchyZeroSizeAccess(t *testing.T) {
	h := NewHierarchy(testHierarchyConfig())
	r := h.Access(0, 0x100, 0, false)
	if r.Latency != 0 || h.L1Bytes != 0 || h.DRAM().Bytes != 0 {
		t.Errorf("zero-size access should be free: %+v, %d/%d B", r, h.L1Bytes, h.DRAM().Bytes)
	}
}

func TestHierarchyAccessLatencyMonotoneUnderLoadProperty(t *testing.T) {
	// Property: cold misses through a saturated channel never get faster
	// than the idle-channel service time.
	cfg := testHierarchyConfig()
	h := NewHierarchy(cfg)
	idle := cfg.DRAM.Latency + uint64(float64(cfg.L1D.LineSize)/cfg.DRAM.BytesPerCycle+0.5)
	if err := quick.Check(func(n uint16) bool {
		h.Reset()
		var last AccessResult
		for i := 0; i <= int(n%64); i++ {
			last = h.Access(0, uint64(i)*64, 8, false)
		}
		return last.Latency >= idle || !last.L2Miss
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
