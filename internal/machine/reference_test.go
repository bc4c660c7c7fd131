package machine

import (
	"fmt"
	"testing"

	"mperf/internal/isa"
	"mperf/internal/mem"
)

// This file keeps the core's earlier per-uop observed timing model as
// an independent reference: refExec charges one uop through its own
// copy of the in-order and out-of-order pipelines and emits that uop's
// signal deltas as one batch, built from the uop itself rather than
// from the core's Stats. Production code charges every uop through the
// region loops and rebuilds deltas from Stats at flush points; the
// tests below pin the two against each other.

// refExec executes one uop on c with the reference model and delivers
// its watched deltas to sink (if any) as one batch.
func refExec(c *Core, sink EventSink, u *Uop) {
	startCycles := c.cycles
	startInstret := c.instretFx >> 8
	startStalls := c.stats.StallCycles
	h := c.memh
	startBytes := [3]uint64{h.L1Bytes, h.L2Bytes, h.DRAM().Bytes}

	var access mem.AccessResult
	var mispredict bool
	if c.cfg.Kind == InOrder {
		access, mispredict = refInOrder(c, u)
	} else {
		access, mispredict = refOutOfOrder(c, u)
	}
	bytes := [3]uint64{h.L1Bytes - startBytes[0], h.L2Bytes - startBytes[1], h.DRAM().Bytes - startBytes[2]}

	// Retired-instruction accounting via per-class expansion.
	c.instretFx += uint64(c.cfg.expansion(u.Class))
	c.stats.Uops++

	// OS timer tick: periodically spend handler time in S-mode.
	var timerCycles uint64
	if c.nextTimer != 0 && c.cycles >= c.nextTimer {
		timerCycles = c.cfg.TimerHandlerCycles
		c.cycles += timerCycles
		// The handler retires roughly one instruction per cycle.
		c.instretFx += timerCycles << 8
		c.nextTimer += c.cfg.TimerIntervalCycles
		c.stats.TimerTicks++
	}

	refEmit(c, sink, u, startCycles, startInstret, startStalls, access, bytes, mispredict, timerCycles)
}

// refInOrder charges time through the register scoreboard.
func refInOrder(c *Core, u *Uop) (access mem.AccessResult, mispredict bool) {
	// Stall until all sources are ready.
	earliest := c.cycles
	if u.Src1 >= 0 {
		if r := c.ready[uint32(u.Src1)&(scoreboardSize-1)]; r > earliest {
			earliest = r
		}
	}
	if u.Src2 >= 0 {
		if r := c.ready[uint32(u.Src2)&(scoreboardSize-1)]; r > earliest {
			earliest = r
		}
	}
	if u.Src3 >= 0 {
		if r := c.ready[uint32(u.Src3)&(scoreboardSize-1)]; r > earliest {
			earliest = r
		}
	}
	if earliest > c.cycles {
		c.stats.StallCycles += earliest - c.cycles
		c.cycles = earliest
		c.issued = 0
	}
	if c.issued >= c.cfg.IssueWidth {
		c.cycles++
		c.issued = 0
	}

	lat := c.cfg.Latency[u.Class]
	switch u.Class {
	case OpLoad, OpVecLoad:
		access = c.memh.Access(c.cycles, u.Addr, int(u.Size), false)
		lat += access.Latency
	case OpStore, OpVecStore:
		access = c.memh.Access(c.cycles, u.Addr, int(u.Size), true)
		// Stores retire through the store buffer at posted-write cost
		// (bandwidth, not round-trip latency); the pipeline stalls only
		// when the buffer is full and the oldest entry has not drained.
		complete := c.cycles + access.PostedLatency
		oldest := c.storeBuf[c.storeHead]
		if oldest > c.cycles {
			c.stats.StallCycles += oldest - c.cycles
			c.cycles = oldest
			c.issued = 0
			if complete < c.cycles {
				complete = c.cycles
			}
		}
		c.storeBuf[c.storeHead] = complete
		c.storeHead = (c.storeHead + 1) % len(c.storeBuf)
	case OpBranch:
		mispredict = c.bp.conditional(u.BrID, u.Taken)
	case OpIndirect:
		mispredict = c.bp.indirect(u.BrID, u.Target)
	}
	if mispredict {
		c.cycles += c.cfg.MispredictPenalty
		c.issued = 0
	}

	c.issued++
	if u.Dst >= 0 {
		c.ready[uint32(u.Dst)&(scoreboardSize-1)] = c.cycles + lat
	}
	return access, mispredict
}

// refOutOfOrder charges time through the analytic model: issue
// bandwidth plus un-hidable penalties.
func refOutOfOrder(c *Core, u *Uop) (access mem.AccessResult, mispredict bool) {
	// Issue bandwidth: 1/width cycles per uop, in ×256 fixed point.
	c.fracCycle += 256 / uint64(c.cfg.IssueWidth)
	if c.fracCycle >= 256 {
		c.cycles += c.fracCycle >> 8
		c.fracCycle &= 255
	}

	switch u.Class {
	case OpLoad, OpVecLoad:
		access = c.memh.Access(c.cycles, u.Addr, int(u.Size), false)
		if access.L1Miss {
			// The window overlaps misses; expose latency/MLP.
			pen := access.Latency / uint64(c.cfg.MLP)
			c.cycles += pen
			c.stats.StallCycles += pen
			c.replayFP = 8 // downstream FP uops re-issue (counter overcount)
		}
	case OpStore, OpVecStore:
		access = c.memh.Access(c.cycles, u.Addr, int(u.Size), true)
		complete := c.cycles + access.PostedLatency
		oldest := c.storeBuf[c.storeHead]
		if oldest > c.cycles {
			// Store buffer full behind a saturated channel.
			c.stats.StallCycles += oldest - c.cycles
			c.cycles = oldest
			if complete < c.cycles {
				complete = c.cycles
			}
		}
		c.storeBuf[c.storeHead] = complete
		c.storeHead = (c.storeHead + 1) % len(c.storeBuf)
	case OpIntDiv, OpFPDiv:
		// Partially pipelined long-latency units.
		pen := c.cfg.Latency[u.Class] / 2
		c.cycles += pen
		c.stats.StallCycles += pen
	case OpBranch:
		mispredict = c.bp.conditional(u.BrID, u.Taken)
	case OpIndirect:
		mispredict = c.bp.indirect(u.BrID, u.Target)
	}
	if mispredict {
		c.cycles += c.cfg.MispredictPenalty
		c.stats.StallCycles += c.cfg.MispredictPenalty
	}
	return access, mispredict
}

// refEmit folds the uop's effects into statistics and delivers its
// watched signals to sink as one batch. bytes holds the uop's L1D, L2
// and DRAM traffic, read from the hierarchy's counters around the
// access.
func refEmit(c *Core, sink EventSink, u *Uop, startCycles, startInstret, startStalls uint64,
	access mem.AccessResult, bytes [3]uint64, mispredict bool, timerCycles uint64) {

	cycleDelta := c.cycles - startCycles
	instretDelta := (c.instretFx >> 8) - startInstret
	stallDelta := c.stats.StallCycles - startStalls

	flops := uint64(u.Flops)
	specFlops := flops
	if flops > 0 && c.replayFP > 0 {
		specFlops += flops
		c.replayFP--
	}

	c.stats.Flops += flops
	c.stats.SpecFlops += specFlops
	c.stats.IntOps += uint64(u.IntOps)
	if access.L1Miss {
		c.stats.L1DMisses++
	}
	if access.L2Miss {
		c.stats.L2Misses++
	}

	switch u.Class {
	case OpLoad, OpVecLoad:
		c.stats.Loads++
	case OpStore, OpVecStore:
		c.stats.Stores++
	}
	if u.Class.IsFP() {
		if u.Class.IsVector() {
			c.stats.VecFPOps++
		} else {
			c.stats.FPOps++
		}
	}

	if sink == nil {
		return
	}
	mask := sink.WatchMask()
	var b DeltaBatch
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
	switch u.Class {
	case OpLoad, OpVecLoad:
		b.AddWatched(mask, isa.SigLoad, 1)
		b.AddWatched(mask, isa.SigL1DAccess, 1)
	case OpStore, OpVecStore:
		b.AddWatched(mask, isa.SigStore, 1)
		b.AddWatched(mask, isa.SigL1DAccess, 1)
	case OpBranch, OpIndirect:
		b.AddWatched(mask, isa.SigBranch, 1)
		if mispredict {
			b.AddWatched(mask, isa.SigBranchMiss, 1)
		}
	}
	if access.L1Miss {
		b.AddWatched(mask, isa.SigL1DMiss, 1)
		b.AddWatched(mask, isa.SigL2Access, 1)
	}
	if access.L2Miss {
		b.AddWatched(mask, isa.SigL2Miss, 1)
	}
	b.AddWatched(mask, isa.SigStall, stallDelta)
	b.AddWatched(mask, isa.SigDRAMBytes, bytes[2])
	b.AddWatched(mask, isa.SigL1DBytes, bytes[0])
	b.AddWatched(mask, isa.SigL2Bytes, bytes[1])
	if u.Class.IsFP() {
		if u.Class.IsVector() {
			b.AddWatched(mask, isa.SigVecFPOp, 1)
		} else {
			b.AddWatched(mask, isa.SigFPOp, 1)
		}
	}
	b.AddWatched(mask, isa.SigFPFlop, flops)
	b.AddWatched(mask, isa.SigSpecFlop, specFlops)
	b.AddWatched(mask, isa.SigIntOp, uint64(u.IntOps))
	if b.N > 0 {
		sink.Apply(&b)
	}
}

// applyLog records every Apply call in order: each delivered
// (signal, value) pair, with a batch-end marker after each call.
type applyLog struct {
	recordingSink
	sampling bool
	entries  []applied
}

type applied struct {
	sig isa.Signal // NumSignals marks the end of a batch
	val uint64
}

func (l *applyLog) Apply(b *DeltaBatch) {
	l.recordingSink.Apply(b)
	for i := 0; i < b.N; i++ {
		l.entries = append(l.entries, applied{b.Sig[i], b.Val[i]})
	}
	l.entries = append(l.entries, applied{sig: isa.NumSignals})
}

func (l *applyLog) SamplingActive() bool { return l.sampling }

// fractionalConfig is an out-of-order core whose uops each retire
// 200/256 of an instruction, so short windows can retire no whole
// cycle or instruction while still holding loads and branches.
func fractionalConfig() Config {
	cfg := oooConfig()
	cfg.Name = "test-fractional"
	for i := range cfg.InstrExpansion {
		cfg.InstrExpansion[i] = 200
	}
	return cfg
}

// referenceConfigs are the pipeline shapes the reference tests cover,
// each with timer ticks so S-mode handler time is exercised.
func referenceConfigs() []Config {
	cfgs := []Config{inOrderConfig(), oooConfig(), fractionalConfig()}
	for i := range cfgs {
		cfgs[i].TimerIntervalCycles = 5_000
		cfgs[i].TimerHandlerCycles = 100
	}
	return cfgs
}

// everyClassStream generates a deterministic uop stream in template
// form (raw register ids, dynamic operands in dyn) covering every uop
// class, scalar and vector FP included.
func everyClassStream(n int) ([]Uop, []RegionDyn) {
	tmpl := make([]Uop, n)
	dyn := make([]RegionDyn, n)
	seed := uint64(0x5EED)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	reg := func() int32 { return int32(next() % 64) }
	for i := range tmpl {
		u := &tmpl[i]
		u.Class = OpClass(next() % uint64(NumOpClasses))
		u.Dst, u.Src1, u.Src2, u.Src3 = reg(), reg(), -1, -1
		switch u.Class {
		case OpIntALU, OpIntMul, OpIntDiv:
			u.Src2, u.IntOps = reg(), 1
		case OpFPAdd, OpFPMul, OpFPDiv:
			u.Src2, u.Flops = reg(), 1
		case OpFMA:
			u.Src2, u.Src3, u.Flops = reg(), reg(), 2
		case OpVecALU:
			u.Src2, u.Flops, u.Lanes = reg(), 8, 8
		case OpVecFMA:
			u.Src2, u.Src3, u.Flops, u.Lanes = reg(), reg(), 16, 8
		case OpLoad, OpStore:
			u.Size = 8
		case OpVecLoad, OpVecStore:
			u.Size, u.Lanes = 32, 8
		case OpBranch:
			u.Dst, u.BrID = -1, uint32(next()%16)+1
			dyn[i].Taken = next()%3 == 0
		case OpIndirect:
			u.Dst, u.BrID = -1, uint32(next()%8)+1
			dyn[i].Target = 0xA000 + (next()%4)*0x40
		}
		if u.Class.IsMem() {
			dyn[i].Addr = 0x2000 + next()%(1<<20)
			if u.Class == OpStore || u.Class == OpVecStore {
				u.Dst = -1
			}
		}
	}
	return tmpl, dyn
}

// materialize returns uop i of a template stream as Exec takes it:
// slots salted, dynamic operands filled in.
func materialize(tmpl []Uop, dyn []RegionDyn, i int, salt uint32) Uop {
	slot := func(r int32) int32 {
		if r < 0 {
			return -1
		}
		return int32((uint32(r) + salt) & (scoreboardSize - 1))
	}
	u := tmpl[i]
	u.Dst, u.Src1, u.Src2, u.Src3 = slot(u.Dst), slot(u.Src1), slot(u.Src2), slot(u.Src3)
	u.Addr, u.Taken, u.Target = dyn[i].Addr, dyn[i].Taken, dyn[i].Target
	return u
}

// privAt is the privilege mode the reference streams run uop i in:
// mostly U-mode with stretches of S- and M-mode.
func privAt(i int) isa.PrivMode {
	switch (i / 997) % 7 {
	case 3:
		return isa.PrivS
	case 5:
		return isa.PrivM
	}
	return isa.PrivU
}

// TestExecMatchesReference pins production Exec against the reference
// model under a sampling sink that watches every signal: both must
// leave identical Stats and deliver the identical Apply sequence —
// every batch, signal, value and order — uop by uop, on the in-order,
// out-of-order and fractional-expansion cores, across privilege-mode
// changes and timer ticks.
func TestExecMatchesReference(t *testing.T) {
	const salt = uint32(3 * 251)
	tmpl, dyn := everyClassStream(40_000)
	for _, cfg := range referenceConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			got, want := &applyLog{sampling: true}, &applyLog{}
			prod := NewCore(cfg, got)
			ref := NewCore(cfg, nil)
			for i := range tmpl {
				prod.SetPriv(privAt(i))
				ref.SetPriv(privAt(i))
				u := materialize(tmpl, dyn, i, salt)
				prod.Exec(&u)
				u = materialize(tmpl, dyn, i, salt)
				refExec(ref, want, &u)
			}
			if prod.Stats() != ref.Stats() {
				t.Errorf("stats diverge:\nexec:      %+v\nreference: %+v", prod.Stats(), ref.Stats())
			}
			if st := ref.Stats(); st.FPOps == 0 || st.VecFPOps == 0 || st.TimerTicks == 0 {
				t.Fatalf("stream exercises too little: %+v", st)
			}
			if len(got.entries) != len(want.entries) {
				t.Errorf("exec delivered %d entries, reference %d", len(got.entries), len(want.entries))
			}
			for i := range min(len(got.entries), len(want.entries)) {
				if got.entries[i] != want.entries[i] {
					t.Fatalf("Apply sequence diverges at entry %d: exec %+v, reference %+v",
						i, got.entries[i], want.entries[i])
				}
			}
		})
	}
}

// TestBatchedDeliveryMatchesPerUop pins batched delivery to a counting
// sink (one with no armed sampler): charging a stream through
// ExecRegion and flushing every k uops must leave the sink — when
// ExecRegion returns and again after the flush — with the same total
// for every signal as the reference model's per-uop batches over the
// same uops. The fractional-expansion core has windows that retire no
// whole cycle or instruction but still hold loads and branches, so a
// flush that stops early on such a window comes up short.
func TestBatchedDeliveryMatchesPerUop(t *testing.T) {
	const salt = uint32(5 * 251)
	tmpl, dyn := everyClassStream(20_000)
	for _, cfg := range referenceConfigs() {
		for _, k := range []int{1, 2, 3, 17, 1000, len(tmpl)} {
			t.Run(fmt.Sprintf("%s/k=%d", cfg.Name, k), func(t *testing.T) {
				var perUop, counting applyLog
				ref := NewCore(cfg, nil)
				c := NewCore(cfg, &counting)
				same := func(when string, end int) bool {
					if counting.totals == perUop.totals {
						return true
					}
					for s := isa.Signal(0); s < isa.NumSignals; s++ {
						if got, want := counting.totals[s], perUop.totals[s]; got != want {
							t.Errorf("%s through uop %d, %s: batched total %d, per-uop total %d",
								when, end, s, got, want)
						}
					}
					return false
				}
				for i := 0; i < len(tmpl); i += k {
					end := min(i+k, len(tmpl))
					for j := i; j < end; j++ {
						u := materialize(tmpl, dyn, j, salt)
						refExec(ref, &perUop, &u)
					}
					c.ExecRegion(tmpl[i:end], dyn[i:end], salt)
					if !same("ExecRegion", end) {
						return
					}
					c.FlushEvents()
					if !same("FlushEvents", end) {
						return
					}
				}
				if c.Stats() != ref.Stats() {
					t.Errorf("stats diverge:\nbatched:   %+v\nreference: %+v", c.Stats(), ref.Stats())
				}
			})
		}
	}
}

// switchableSink watches whatever its mask says and never samples.
type switchableSink struct {
	recordingSink
	mask uint64
}

func (s *switchableSink) WatchMask() uint64    { return s.mask }
func (s *switchableSink) SamplingActive() bool { return false }

// TestCountingStartsAtRefresh pins that a counter on a signal other
// than cycles, instret and the mode cycles sees only the activity
// after RefreshSinkMask picked it up, whether the sink watched nothing
// or only time signals before: the Stats flush mark is re-baselined
// instead of replaying history.
func TestCountingStartsAtRefresh(t *testing.T) {
	const salt = uint32(251)
	tmpl, dyn := everyClassStream(4_000)
	half := len(tmpl) / 2
	for _, before := range []uint64{0, timeSigMask} {
		for _, cfg := range referenceConfigs() {
			sink := &switchableSink{mask: before}
			c := NewCore(cfg, sink)
			c.ExecRegion(tmpl[:half], dyn[:half], salt)
			c.FlushEvents()
			atSwitch := c.Stats()
			sink.mask = ^uint64(0)
			c.RefreshSinkMask()
			c.ExecRegion(tmpl[half:], dyn[half:], salt)
			st := c.Stats()
			if got, want := sink.totals[isa.SigLoad], st.Loads-atSwitch.Loads; got != want {
				t.Errorf("%s, mask %#x before: loads counter %d, want %d since the switch", cfg.Name, before, got, want)
			}
			if got, want := sink.totals[isa.SigIntOp], st.IntOps-atSwitch.IntOps; got != want {
				t.Errorf("%s, mask %#x before: int-op counter %d, want %d since the switch", cfg.Name, before, got, want)
			}
		}
	}
}
