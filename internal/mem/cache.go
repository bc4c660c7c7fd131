// Package mem models the memory subsystem the simulated cores execute
// against: set-associative write-back caches with LRU replacement and a
// bandwidth-limited DRAM channel.
//
// The model is deliberately structural rather than timing-exact. What
// the reproduction needs from it is (a) realistic hit/miss behaviour so
// that cache-blocking in the matmul kernel matters, and (b) a DRAM
// channel whose sustained bytes/cycle saturates, so the memory roof of
// the Roofline model (§5.2) and the memset-derived bandwidth figure
// (§3.3, 3.16 B/cycle on the X60) are properties of the simulation
// rather than constants typed into the report.
package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string // e.g. "L1D"
	SizeBytes  int    // total capacity
	LineSize   int    // bytes per line, power of two
	Ways       int    // associativity
	HitLatency uint64 // cycles for a hit in this level

	// BytesPerCycle is the peak sustainable bandwidth of this level,
	// used only as a roofline ceiling. It does not participate in
	// access timing, which is governed by HitLatency and the DRAM
	// channel model; leaving it zero falls back to LineSize/HitLatency.
	BytesPerCycle float64
}

// PeakBytesPerCycle returns the configured roofline-ceiling bandwidth,
// defaulting to one line per hit latency when unset.
func (c CacheConfig) PeakBytesPerCycle() float64 {
	if c.BytesPerCycle > 0 {
		return c.BytesPerCycle
	}
	if c.HitLatency == 0 {
		return float64(c.LineSize)
	}
	return float64(c.LineSize) / float64(c.HitLatency)
}

// Validate checks structural invariants of the configuration.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineSize <= 0 || c.Ways <= 0 {
		return fmt.Errorf("mem: %s: size, line size and ways must be positive", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d is not a power of two", c.Name, c.LineSize)
	}
	if c.SizeBytes%(c.LineSize*c.Ways) != 0 {
		return fmt.Errorf("mem: %s: size %d not divisible by line*ways=%d",
			c.Name, c.SizeBytes, c.LineSize*c.Ways)
	}
	sets := c.SizeBytes / (c.LineSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Cache is one set-associative, write-back, write-allocate cache level
// with LRU replacement.
type Cache struct {
	cfg       CacheConfig
	sets      int
	lineShift uint
	setMask   uint64

	// Flat arrays indexed by set*ways+way. A tag word encodes
	// (lineTag << 1) | validBit, so the probe loop is a single compare
	// per way; 0 means the way is empty.
	tags  []uint64
	dirty []bool
	used  []uint64 // LRU timestamps

	tick uint64 // monotonically increasing use counter
}

// NewCache builds a cache level; it panics on invalid configuration
// because configurations are compiled-in platform constants.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / (cfg.LineSize * cfg.Ways)
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	n := sets * cfg.Ways
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, n),
		dirty:     make([]bool, n),
		used:      make([]uint64, n),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}

// Lookup probes the cache for the line containing addr. On a hit it
// refreshes the LRU state (and marks the line dirty if write) and
// returns true. It does not allocate on miss; use Fill for that.
// The cache keeps no statistics: the Hierarchy counts demand traffic.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	tag := addr >> c.lineShift
	set := int(tag & c.setMask)
	base := set * c.cfg.Ways
	want := tag<<1 | 1
	tags := c.tags[base : base+c.cfg.Ways]
	for w := range tags {
		if tags[w] == want {
			i := base + w
			c.tick++
			c.used[i] = c.tick
			if write {
				c.dirty[i] = true
			}
			return true
		}
	}
	return false
}

// Fill allocates the line containing addr, evicting the LRU way if the
// set is full. It returns the evicted line address and whether the
// victim was dirty (and therefore causes a write-back).
func (c *Cache) Fill(addr uint64, write bool) (evicted uint64, dirtyEvict bool, hadVictim bool) {
	tag := addr >> c.lineShift
	set := int(tag & c.setMask)
	base := set * c.cfg.Ways
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.tags[i]&1 == 0 {
			victim = i
			hadVictim = false
			goto install
		}
		if c.used[i] < c.used[victim] {
			victim = i
		}
	}
	hadVictim = true
	evicted = c.tags[victim] >> 1 << c.lineShift
	dirtyEvict = c.dirty[victim]
install:
	c.tick++
	c.tags[victim] = tag<<1 | 1
	c.dirty[victim] = write
	c.used[victim] = c.tick
	return evicted, dirtyEvict, hadVictim
}

// Contains reports whether the line holding addr is resident, without
// disturbing LRU state. Intended for tests.
func (c *Cache) Contains(addr uint64) bool {
	tag := addr >> c.lineShift
	set := int(tag & c.setMask)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == tag<<1|1 {
			return true
		}
	}
	return false
}

// Reset invalidates all lines.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.dirty[i] = false
		c.used[i] = 0
	}
	c.tick = 0
}
