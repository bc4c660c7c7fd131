package mem

// AccessResult reports what a memory access cost and whether it
// missed. The core model folds the latencies into the pipeline and
// counts the miss flags as PMU events. It carries no byte counts: the
// bytes an access moves are added to the Hierarchy's counters.
type AccessResult struct {
	Latency uint64 // total cycles until data available
	// PostedLatency is the cost with the fixed DRAM access latency
	// stripped: queueing plus channel occupancy only. Stores retire
	// through this figure — a posted write does not wait for the DRAM
	// round trip, only for bandwidth.
	PostedLatency uint64
	L1Miss        bool // missed in L1D
	L2Miss        bool // missed in L2 (implies DRAM traffic)
}

// HierarchyConfig describes a two-level cache hierarchy over DRAM.
// All platforms in the catalog use L1D + shared L2; modelling deeper
// hierarchies adds nothing to the paper's experiments (the paper's own
// arithmetic-intensity accounting stops at L1, §5.2).
type HierarchyConfig struct {
	L1D  CacheConfig
	L2   CacheConfig
	DRAM DRAMConfig
}

// Hierarchy is the per-core memory system: L1D backed by L2 backed by a
// DRAM channel. It is not safe for concurrent use; each simulated core
// owns one.
//
// The Hierarchy is the only place that counts memory traffic. Its
// exported counters and the channel's Bytes run from construction and
// only ever grow; readers (the core's Stats, the PMU's byte signals,
// the roofline runtime's per-region traffic) take them as snapshots or
// deltas. Reset empties the caches but leaves every counter running.
type Hierarchy struct {
	l1d  *Cache
	l2   *Cache
	dram *DRAM

	lineSize uint64

	// WriteBacks counts dirty victims written back to DRAM.
	WriteBacks uint64

	// Per-level traffic attribution. The Accesses/Hits pairs count
	// demand lookups only (no writeback or fill probes), so the
	// conservation law L1Accesses == L1Hits + L2Accesses holds exactly.
	// L1Bytes is the demand footprint of every access; L2Bytes counts
	// the lines crossing the L1D<->L2 bus (refills and writebacks).
	// DRAM traffic is DRAM().Bytes.
	L1Accesses uint64
	L1Hits     uint64
	L2Accesses uint64
	L2Hits     uint64
	L1Bytes    uint64
	L2Bytes    uint64
}

// NewHierarchy constructs the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		l1d:      NewCache(cfg.L1D),
		l2:       NewCache(cfg.L2),
		dram:     NewDRAM(cfg.DRAM),
		lineSize: uint64(cfg.L1D.LineSize),
	}
}

// L1D returns the first-level data cache (for statistics inspection).
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// DRAM returns the memory channel.
func (h *Hierarchy) DRAM() *DRAM { return h.dram }

// Access performs a data access of size bytes at addr starting at cycle
// now. Accesses that straddle line boundaries touch every affected
// line; the returned latency is the maximum of the per-line latencies
// (lines are fetched in parallel across banks in this model) and a
// miss on any line is a miss of the access.
func (h *Hierarchy) Access(now uint64, addr uint64, size int, write bool) AccessResult {
	if size <= 0 {
		return AccessResult{}
	}
	h.L1Bytes += uint64(size)
	first := h.l1d.LineAddr(addr)
	last := h.l1d.LineAddr(addr + uint64(size) - 1)
	if first == last {
		// Fast path: the overwhelmingly common single-line access needs
		// no straddle loop or per-line result merging.
		return h.accessLine(now, first, write)
	}
	var res AccessResult
	for line := first; ; line += h.lineSize {
		r := h.accessLine(now, line, write)
		res.Latency = max(res.Latency, r.Latency)
		res.PostedLatency = max(res.PostedLatency, r.PostedLatency)
		res.L1Miss = res.L1Miss || r.L1Miss
		res.L2Miss = res.L2Miss || r.L2Miss
		if line == last {
			break
		}
	}
	return res
}

// accessLine resolves a single line through the hierarchy.
func (h *Hierarchy) accessLine(now uint64, line uint64, write bool) AccessResult {
	h.L1Accesses++
	if h.l1d.Lookup(line, write) {
		h.L1Hits++
		lat := h.l1d.cfg.HitLatency
		return AccessResult{Latency: lat, PostedLatency: lat}
	}
	// The miss is refilled from L2: one line crosses the L1<->L2 bus.
	res := AccessResult{L1Miss: true}
	h.L2Bytes += h.lineSize
	h.L2Accesses++
	if h.l2.Lookup(line, false) {
		h.L2Hits++
		res.Latency = h.l2.cfg.HitLatency
		res.PostedLatency = res.Latency
	} else {
		res.L2Miss = true
		res.Latency = h.dram.Transfer(now, int(h.lineSize))
		// Queueing + occupancy only: posted stores do not pay the DRAM
		// round-trip latency.
		res.PostedLatency = res.Latency - h.dram.cfg.Latency
		// Install in L2; a dirty L2 victim is written back to DRAM.
		if _, dirty, had := h.l2.Fill(line, false); had && dirty {
			h.writeBack(now)
		}
	}
	// Install in L1; a dirty L1 victim is written back to L2 (which may
	// in turn evict to DRAM). The victim line crosses the L1<->L2 bus.
	if ev, dirty, had := h.l1d.Fill(line, write); had && dirty {
		h.L2Bytes += h.lineSize
		if !h.l2.Lookup(ev, true) {
			if _, dirty2, had2 := h.l2.Fill(ev, true); had2 && dirty2 {
				h.writeBack(now)
			}
		}
	}
	return res
}

// writeBack sends one dirty L2 victim line over the memory channel.
func (h *Hierarchy) writeBack(now uint64) {
	h.WriteBacks++
	h.dram.Transfer(now, int(h.lineSize))
}

// Reset empties both caches and idles the memory channel, as a cache
// flush between two runs would. Like hardware counters across a flush,
// the traffic counters keep running: a reader that took a snapshot
// before the Reset still gets an exact delta after it.
func (h *Hierarchy) Reset() {
	h.l1d.Reset()
	h.l2.Reset()
	h.dram.busFree = 0
}
