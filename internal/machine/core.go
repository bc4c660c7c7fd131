package machine

import (
	"mperf/internal/isa"
	"mperf/internal/mem"
)

// DeltaBatch carries the architectural signal increments accumulated
// since the core's last flush: one micro-op's while a sampler watches
// event signals, otherwise anything from a region to a whole run. It
// is reused across calls to avoid allocation on the hot path; sinks
// must not retain it.
type DeltaBatch struct {
	N   int
	Sig [24]isa.Signal
	Val [24]uint64
}

// Add appends one signal increment (no-op for zero deltas).
func (b *DeltaBatch) Add(s isa.Signal, v uint64) {
	if v == 0 || b.N >= len(b.Sig) {
		return
	}
	b.Sig[b.N] = s
	b.Val[b.N] = v
	b.N++
}

// AddWatched appends one signal increment only when the sink's watch
// mask covers the signal, so unobserved signals cost one branch
// instead of a batch slot and an Apply iteration.
func (b *DeltaBatch) AddWatched(mask uint64, s isa.Signal, v uint64) {
	if v == 0 || mask&(1<<uint(s)) == 0 || b.N >= len(b.Sig) {
		return
	}
	b.Sig[b.N] = s
	b.Val[b.N] = v
	b.N++
}

// EventSink receives the architectural signal stream from a core.
// The PMU model implements this; a nil sink disables event delivery.
type EventSink interface {
	Apply(b *DeltaBatch)
	// WatchMask reports which signals currently have a consumer, as a
	// bitmask indexed by isa.Signal. Signals outside the mask are never
	// delivered, and a zero mask means the sink receives nothing. The
	// core charges every uop on its quiet path and rebuilds the watched
	// deltas from its Stats at flush points (see FlushEvents), so a
	// batch may cover many uops: only a sink that reports an armed
	// sampler (see SamplingSink) while watching signals other than
	// cycles, instret and the mode cycles sees one batch per uop.
	// Statistics and timing are unaffected either way.
	WatchMask() uint64
}

const scoreboardSize = 1024 // power of two; slots are hashed with a mask

// Stats aggregates a core's architectural and microarchitectural
// activity since construction. The core counts most fields itself; a
// snapshot (Core.Stats) fills Branches and Mispredicts from the branch
// predictor and the three byte counts from the memory hierarchy, which
// is the only place that counts memory traffic.
type Stats struct {
	Cycles      uint64
	Instret     uint64
	Uops        uint64
	StallCycles uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	FPOps       uint64 // scalar floating-point uops
	VecFPOps    uint64 // vector floating-point uops
	Flops       uint64
	SpecFlops   uint64 // FLOPs issued including miss-replayed work
	IntOps      uint64
	L1DMisses   uint64
	L2Misses    uint64
	L1DBytes    uint64 // bytes demanded of L1D by loads/stores (Hierarchy.L1Bytes)
	L2Bytes     uint64 // bytes moved on the L1D<->L2 bus (Hierarchy.L2Bytes)
	DRAMBytes   uint64 // bytes moved on the memory channel (DRAM.Bytes)
	TimerTicks  uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instret) / float64(s.Cycles)
}

// Core is one simulated hardware thread. It is not safe for concurrent
// use: the interpreter drives it single-threaded, like a hart.
type Core struct {
	cfg  Config
	sink EventSink
	memh *mem.Hierarchy
	bp   *branchPredictor

	cycles    uint64
	issued    int    // uops issued in the current cycle
	instretFx uint64 // retired instructions ×256 (fixed point)

	ready [scoreboardSize]uint64 // scoreboard: cycle when a slot's value is ready

	storeBuf  []uint64 // completion cycles of in-flight stores (ring)
	storeHead int

	// fracCycle accumulates issue-bandwidth cycles ×256 for the
	// out-of-order model.
	fracCycle uint64

	// replayFP counts how many upcoming FP uops re-issue due to a
	// recent cache miss (models the documented overcount of FP
	// operation counters on miss-replayed code, which is the mechanism
	// behind the Advisor-vs-IR FLOP gap in Fig 4).
	replayFP int

	priv      isa.PrivMode
	pc        uint64
	nextTimer uint64

	// sinkMask caches the sink's watch mask between refreshes. PMU
	// configuration only changes between workload runs (kernel perf
	// calls never interleave with interpretation), so the interpreter
	// refreshes it at block boundaries instead of paying an interface
	// call per uop.
	sinkMask      uint64
	sinkMaskValid bool
	// sinkSampling caches whether the sink has an armed overflow
	// sampler (see SamplingSink); refreshed with sinkMask. While false,
	// event delivery is purely additive, so every watched signal is
	// batched.
	sinkSampling bool

	// Flush marks for batched delivery: FlushEvents reconstructs the
	// deltas since the last flush from them. The time marks advance at
	// every flush. flushStats, the mark for every other signal, only
	// advances while such a signal is watched, and RefreshSinkMask
	// re-baselines it when one starts being watched, so history is
	// never replayed. Sample PCs are block-granular anyway, so batching
	// adds at most one block of skid — far below any sampling period —
	// while total counts stay exact.
	flushCycles     uint64
	flushInstret    uint64
	timerSinceFlush uint64
	flushStats      Stats

	batch DeltaBatch
	stats Stats
}

// NewCore builds a core from the configuration; it panics on an
// invalid configuration (configurations are compiled-in constants).
func NewCore(cfg Config, sink EventSink) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg:      cfg,
		sink:     sink,
		memh:     mem.NewHierarchy(cfg.Mem),
		bp:       newBranchPredictor(cfg.PredictorBits, cfg.BTBBits, indirectHistory(cfg)),
		storeBuf: make([]uint64, cfg.StoreBufferEntries),
		priv:     isa.PrivU,
	}
	if cfg.TimerIntervalCycles > 0 {
		c.nextTimer = cfg.TimerIntervalCycles
	}
	return c
}

func indirectHistory(cfg Config) uint {
	// Out-of-order front-ends get history-indexed indirect prediction;
	// the in-order parts use plain last-target BTBs.
	if cfg.Kind == OutOfOrder {
		return 12
	}
	return 0
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Mem exposes the core's memory hierarchy.
func (c *Core) Mem() *mem.Hierarchy { return c.memh }

// Cycles returns the current cycle count.
func (c *Core) Cycles() uint64 { return c.cycles }

// Instret returns the retired instruction count.
func (c *Core) Instret() uint64 { return c.instretFx >> 8 }

// Seconds converts the elapsed cycles to wall-clock seconds at the
// core's nominal frequency.
func (c *Core) Seconds() float64 { return float64(c.cycles) / c.cfg.FreqHz }

// Stats returns a snapshot of the accumulated statistics.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.cycles
	s.Instret = c.instretFx >> 8
	s.Branches = c.bp.Branches
	s.Mispredicts = c.bp.Mispredicts
	s.L1DBytes = c.memh.L1Bytes
	s.L2Bytes = c.memh.L2Bytes
	s.DRAMBytes = c.memh.DRAM().Bytes
	return s
}

// PC returns the architectural program counter (set by the interpreter
// before each uop so that PMU samples attribute to the right symbol).
func (c *Core) PC() uint64 { return c.pc }

// SetPC records the architectural program counter.
func (c *Core) SetPC(pc uint64) { c.pc = pc }

// Priv returns the current privilege mode.
func (c *Core) Priv() isa.PrivMode { return c.priv }

// SetPriv switches the privilege mode (used by the kernel model for
// syscall/trap entry and exit).
func (c *Core) SetPriv(m isa.PrivMode) { c.priv = m }

// SetSink installs the architectural event sink.
func (c *Core) SetSink(s EventSink) {
	c.sink = s
	c.sinkMaskValid = false
}

// RefreshSinkMask re-reads the sink's watch mask. The interpreter
// calls this at the block boundaries of sampling activations; anyone
// reconfiguring counters while driving Exec directly should call it
// before the next uop. When the mask starts watching a signal other
// than cycles, instret and the mode cycles, the Stats flush mark is
// re-baselined so FlushEvents never delivers activity from before the
// signal was watched.
func (c *Core) RefreshSinkMask() {
	wasCounting := c.sinkMask&^timeSigMask != 0
	c.sinkMask = 0
	c.sinkSampling = false
	if c.sink != nil {
		c.sinkMask = c.sink.WatchMask()
		if c.sinkMask != 0 {
			// Sinks that cannot report their sampling state are treated
			// as sampling whenever they watch anything: per-uop delivery
			// is always correct, just not batchable.
			if s, ok := c.sink.(SamplingSink); ok {
				c.sinkSampling = s.SamplingActive()
			} else {
				c.sinkSampling = true
			}
		}
	}
	if !wasCounting && c.sinkMask&^timeSigMask != 0 {
		c.markStats()
	}
	c.sinkMaskValid = true
}

// FlushEvents delivers the watched deltas accumulated since the last
// flush to the sink as one batch, rebuilt from the flush marks: first
// the time signals (cycles, instret, the mode cycles, with timer
// handler time charged to S-mode), then every other watched signal
// as the difference between a Stats snapshot and the Stats mark, in a
// fixed order. The byte signals are thus deltas of the hierarchy's
// own counters, which keep running across Hierarchy.Reset. Sampling
// overflow fires here, so callers must flush before reading counters
// or changing the sink configuration. The time marks advance
// unconditionally, so enabling counters mid-session never replays
// history. A uop-by-uop flush produces exactly the batches a per-uop
// observer would see.
func (c *Core) FlushEvents() {
	cycleDelta := c.cycles - c.flushCycles
	instret := c.instretFx >> 8
	// The instret mark holds whole instructions, carrying the
	// fixed-point remainder into the next window, so fractional
	// expansion factors (x86) never leak an instruction per flush.
	instretDelta := instret - c.flushInstret
	timerCycles := c.timerSinceFlush
	c.flushCycles = c.cycles
	c.flushInstret = instret
	c.timerSinceFlush = 0
	mask := c.sinkMask
	if mask == 0 || c.sink == nil {
		return
	}
	counting := mask&^timeSigMask != 0
	// A window can retire no whole cycle or instruction yet still hold
	// loads or branches (fractional issue and expansion), so only a
	// time-only mask may stop here.
	if !counting && cycleDelta == 0 && instretDelta == 0 {
		return
	}
	b := &c.batch
	b.N = 0
	b.AddWatched(mask, isa.SigCycle, cycleDelta)
	b.AddWatched(mask, isa.SigInstret, instretDelta)
	// Mode-cycle signals come after the base counters so that a
	// sampling leader bound to one of them observes fully-updated
	// cycles/instret values in its group snapshot.
	userCycles := cycleDelta - timerCycles
	switch c.priv {
	case isa.PrivU:
		b.AddWatched(mask, isa.SigUModeCycle, userCycles)
	case isa.PrivS:
		b.AddWatched(mask, isa.SigSModeCycle, userCycles)
	case isa.PrivM:
		b.AddWatched(mask, isa.SigMModeCycle, userCycles)
	}
	b.AddWatched(mask, isa.SigSModeCycle, timerCycles)
	if counting {
		now, was := c.Stats(), &c.flushStats
		loads, stores := now.Loads-was.Loads, now.Stores-was.Stores
		l1Misses := now.L1DMisses - was.L1DMisses
		b.AddWatched(mask, isa.SigLoad, loads)
		b.AddWatched(mask, isa.SigStore, stores)
		b.AddWatched(mask, isa.SigL1DAccess, loads+stores)
		b.AddWatched(mask, isa.SigBranch, now.Branches-was.Branches)
		b.AddWatched(mask, isa.SigBranchMiss, now.Mispredicts-was.Mispredicts)
		b.AddWatched(mask, isa.SigL1DMiss, l1Misses)
		b.AddWatched(mask, isa.SigL2Access, l1Misses)
		b.AddWatched(mask, isa.SigL2Miss, now.L2Misses-was.L2Misses)
		b.AddWatched(mask, isa.SigStall, now.StallCycles-was.StallCycles)
		b.AddWatched(mask, isa.SigDRAMBytes, now.DRAMBytes-was.DRAMBytes)
		b.AddWatched(mask, isa.SigL1DBytes, now.L1DBytes-was.L1DBytes)
		b.AddWatched(mask, isa.SigL2Bytes, now.L2Bytes-was.L2Bytes)
		b.AddWatched(mask, isa.SigFPOp, now.FPOps-was.FPOps)
		b.AddWatched(mask, isa.SigVecFPOp, now.VecFPOps-was.VecFPOps)
		b.AddWatched(mask, isa.SigFPFlop, now.Flops-was.Flops)
		b.AddWatched(mask, isa.SigSpecFlop, now.SpecFlops-was.SpecFlops)
		b.AddWatched(mask, isa.SigIntOp, now.IntOps-was.IntOps)
		c.flushStats = now
	}
	if b.N > 0 {
		c.sink.Apply(b)
	}
}

// markStats advances the Stats flush mark to a current snapshot.
// Cycles and instret have their own marks.
func (c *Core) markStats() { c.flushStats = c.Stats() }

// BlockBoundary marks a basic-block transition: batched deltas are
// flushed and the sink mask is re-read.
func (c *Core) BlockBoundary() {
	c.FlushEvents()
	c.RefreshSinkMask()
}

// Exec charges one micro-op whose register slots are already salted:
// a one-uop region with salt 0, so it runs the same charge loop as
// ExecRegion. Its signals reach the sink at the next FlushEvents,
// except while the sink has an armed sampler and watches a signal
// other than cycles, instret and the mode cycles: then Exec flushes
// after the uop, so an overflow on an event counter fires at the uop
// that crossed it.
func (c *Core) Exec(u *Uop) {
	if !c.sinkMaskValid {
		c.RefreshSinkMask()
	}
	tmpl := [1]Uop{*u}
	dyn := [1]RegionDyn{{Addr: u.Addr, Target: u.Target, Taken: u.Taken}}
	c.chargeRegion(tmpl[:], dyn[:], 0)
	if c.sinkSampling && c.sinkMask&^timeSigMask != 0 {
		c.FlushEvents()
	}
}

// timeSigMask covers the pure time/instruction signals: the set the
// X60 sampling workaround watches (mode-cycle leader plus cycles and
// instret members). Their deltas come from the cycle/instret marks;
// every other signal's come from the Stats mark.
const timeSigMask = 1<<uint(isa.SigCycle) | 1<<uint(isa.SigInstret) |
	1<<uint(isa.SigUModeCycle) | 1<<uint(isa.SigSModeCycle) | 1<<uint(isa.SigMModeCycle)

// chargeQuietAccess counts a memory access's miss events. Its bytes
// are already counted by the hierarchy.
func (c *Core) chargeQuietAccess(access mem.AccessResult) {
	if access.L1Miss {
		c.stats.L1DMisses++
	}
	if access.L2Miss {
		c.stats.L2Misses++
	}
}
