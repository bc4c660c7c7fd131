package mem

// DRAMConfig describes the memory channel behind the last-level cache.
type DRAMConfig struct {
	// BytesPerCycle is the peak sustained channel bandwidth. The X60
	// platform is calibrated so that a streaming memset achieves about
	// 3.16 bytes/cycle, matching the rvv-bench figure cited in §5.2.
	BytesPerCycle float64
	// Latency is the idle-channel access latency in core cycles.
	Latency uint64
}

// DRAM models a single bandwidth-limited memory channel. Transfers
// occupy the channel for size/BytesPerCycle cycles; when requests
// arrive faster than the channel drains, the effective latency grows,
// which is what makes streaming kernels bandwidth-bound in the model.
type DRAM struct {
	cfg     DRAMConfig
	busFree uint64 // first cycle at which the channel is idle

	// Bytes counts every byte the channel has moved since construction.
	// It is the hierarchy's DRAM traffic counter and never resets.
	Bytes uint64
}

// NewDRAM builds a channel model; it panics on non-positive bandwidth
// because configurations are compiled-in platform constants.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.BytesPerCycle <= 0 {
		panic("mem: DRAM bandwidth must be positive")
	}
	return &DRAM{cfg: cfg}
}

// Config returns the channel configuration.
func (d *DRAM) Config() DRAMConfig { return d.cfg }

// Transfer schedules a transfer of size bytes beginning no earlier than
// cycle now and returns the number of cycles until the data is
// available (queueing + latency + occupancy).
func (d *DRAM) Transfer(now uint64, size int) uint64 {
	occupancy := uint64(float64(size)/d.cfg.BytesPerCycle + 0.5)
	if occupancy == 0 {
		occupancy = 1
	}
	start := now
	if d.busFree > start {
		start = d.busFree
	}
	d.busFree = start + occupancy
	d.Bytes += uint64(size)
	return (start - now) + d.cfg.Latency + occupancy
}
