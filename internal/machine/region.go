package machine

// This file implements region-granular charging: the interpreter
// records one RegionDyn per micro-op while running a straight-line
// region's semantics, then charges the whole region through ExecRegion
// in a single call. Each pipeline kind has exactly one charge loop
// (regionQuietInOrder, regionQuietOutOfOrder); Exec is a one-uop
// region over the same loops, and TestExecMatchesReference pins them
// to the per-uop reference model kept in test code.

// RegionDyn carries the dynamic operands of one micro-op in a fused
// region: the memory address, conditional-branch outcome and indirect
// target that only exist at execution time. The static remainder of
// the uop (class, size, retired-work counts, raw register ids) lives
// in the region's immutable template.
type RegionDyn struct {
	Addr   uint64
	Target uint64
	Taken  bool
}

// SamplingSink is optionally implemented by an EventSink that can fire
// overflow samples (the PMU model). While it reports no armed sampler,
// delivery is pure accumulation: the core batches every watched signal
// from its Stats at flush points, and ExecRegion flushes once per
// region. While a sampler is armed, the interpreter charges one block
// per region behind a block boundary, and signals other than cycles,
// instret and the mode cycles are flushed after every uop, so an
// overflow on an event counter fires at the uop that crossed it; the
// time signals stay block-granular either way. A sink that does not implement it is
// conservatively treated as sampling whenever its watch mask is
// non-zero.
type SamplingSink interface {
	// SamplingActive reports whether any overflow sampler is armed on a
	// running counter.
	SamplingActive() bool
}

// SamplingActive reports whether the sink currently has an armed
// overflow sampler (cached at the last RefreshSinkMask, like the watch
// mask). While it is false, event delivery is purely additive, so
// flushes may be coalesced without changing any counter.
func (c *Core) SamplingActive() bool {
	if !c.sinkMaskValid {
		c.RefreshSinkMask()
	}
	return c.sinkSampling
}

// ExecRegion charges a straight-line region of micro-ops in one call.
// tmpl is the region's immutable charge template — uops whose
// Dst/Src1..3 hold the planner's raw register ids (salted into
// scoreboard slots here, exactly like the per-uop path) — and dyn
// holds the recorded runtime operands, parallel to tmpl.
//
// The charge sequence is identical to calling Exec once per uop with
// the same operands. While the sink has an armed sampler and watches a
// signal other than cycles, instret and the mode cycles, the region is
// charged one uop at a time with a flush after each. Otherwise the
// charge loop runs the whole region, and when such a signal is watched
// the region's deltas are flushed before ExecRegion returns, so a
// counting sink holds the region's events without a caller-side flush.
// Time signals alone wait for the caller's next FlushEvents.
func (c *Core) ExecRegion(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	if len(tmpl) == 0 {
		return
	}
	if !c.sinkMaskValid {
		c.RefreshSinkMask()
	}
	counting := c.sinkMask&^timeSigMask != 0
	if counting && c.sinkSampling {
		c.regionObserved(tmpl, dyn, salt)
		return
	}
	c.chargeRegion(tmpl, dyn, salt)
	if counting {
		c.FlushEvents()
	}
}

// chargeRegion runs the pipeline kind's charge loop over a region.
func (c *Core) chargeRegion(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	if c.cfg.Kind == InOrder {
		c.regionQuietInOrder(tmpl, dyn, salt)
	} else {
		c.regionQuietOutOfOrder(tmpl, dyn, salt)
	}
}

// regionQuietInOrder charges a region on the in-order model: register
// scoreboard stalls, dual issue, the store buffer and mispredict
// penalties, then retirement, the timer tick and the FLOP accounting
// of each uop.
func (c *Core) regionQuietInOrder(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	for i := range tmpl {
		u := &tmpl[i]

		earliest := c.cycles
		if u.Src1 >= 0 {
			if r := c.ready[(uint32(u.Src1)+salt)&(scoreboardSize-1)]; r > earliest {
				earliest = r
			}
		}
		if u.Src2 >= 0 {
			if r := c.ready[(uint32(u.Src2)+salt)&(scoreboardSize-1)]; r > earliest {
				earliest = r
			}
		}
		if u.Src3 >= 0 {
			if r := c.ready[(uint32(u.Src3)+salt)&(scoreboardSize-1)]; r > earliest {
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
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), false)
			lat += access.Latency
			c.chargeQuietAccess(access)
			c.stats.Loads++
		case OpStore, OpVecStore:
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), true)
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
			c.chargeQuietAccess(access)
			c.stats.Stores++
		case OpBranch:
			if c.bp.conditional(u.BrID, dyn[i].Taken) {
				c.cycles += c.cfg.MispredictPenalty
				c.issued = 0
			}
		case OpIndirect:
			if c.bp.indirect(u.BrID, dyn[i].Target) {
				c.cycles += c.cfg.MispredictPenalty
				c.issued = 0
			}
		case OpFPAdd, OpFPMul, OpFMA, OpFPDiv:
			c.stats.FPOps++
		case OpVecALU, OpVecFMA:
			c.stats.VecFPOps++
		}

		c.issued++
		if u.Dst >= 0 {
			c.ready[(uint32(u.Dst)+salt)&(scoreboardSize-1)] = c.cycles + lat
		}

		c.instretFx += uint64(c.cfg.expansion(u.Class))
		c.stats.Uops++

		if c.nextTimer != 0 && c.cycles >= c.nextTimer {
			timerCycles := c.cfg.TimerHandlerCycles
			c.cycles += timerCycles
			c.instretFx += timerCycles << 8
			c.nextTimer += c.cfg.TimerIntervalCycles
			c.stats.TimerTicks++
			c.timerSinceFlush += timerCycles
		}

		flops := uint64(u.Flops)
		specFlops := flops
		if flops > 0 && c.replayFP > 0 {
			specFlops += flops
			c.replayFP--
		}
		c.stats.Flops += flops
		c.stats.SpecFlops += specFlops
		c.stats.IntOps += uint64(u.IntOps)
	}
}

// regionQuietOutOfOrder charges a region on the analytic out-of-order
// model: issue bandwidth plus the penalties the window cannot hide
// (exposed miss latency over MLP, a full store buffer, long-latency
// divides, mispredicts), then the same retirement tail as the in-order
// loop.
func (c *Core) regionQuietOutOfOrder(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	issueFx := 256 / uint64(c.cfg.IssueWidth)
	for i := range tmpl {
		u := &tmpl[i]

		c.fracCycle += issueFx
		if c.fracCycle >= 256 {
			c.cycles += c.fracCycle >> 8
			c.fracCycle &= 255
		}

		switch u.Class {
		case OpLoad, OpVecLoad:
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), false)
			if access.L1Miss {
				pen := access.Latency / uint64(c.cfg.MLP)
				c.cycles += pen
				c.stats.StallCycles += pen
				c.replayFP = 8
			}
			c.chargeQuietAccess(access)
			c.stats.Loads++
		case OpStore, OpVecStore:
			access := c.memh.Access(c.cycles, dyn[i].Addr, int(u.Size), true)
			complete := c.cycles + access.PostedLatency
			oldest := c.storeBuf[c.storeHead]
			if oldest > c.cycles {
				c.stats.StallCycles += oldest - c.cycles
				c.cycles = oldest
				if complete < c.cycles {
					complete = c.cycles
				}
			}
			c.storeBuf[c.storeHead] = complete
			c.storeHead = (c.storeHead + 1) % len(c.storeBuf)
			c.chargeQuietAccess(access)
			c.stats.Stores++
		case OpFPDiv:
			c.stats.FPOps++
			fallthrough
		case OpIntDiv:
			pen := c.cfg.Latency[u.Class] / 2
			c.cycles += pen
			c.stats.StallCycles += pen
		case OpBranch:
			if c.bp.conditional(u.BrID, dyn[i].Taken) {
				c.cycles += c.cfg.MispredictPenalty
				c.stats.StallCycles += c.cfg.MispredictPenalty
			}
		case OpIndirect:
			if c.bp.indirect(u.BrID, dyn[i].Target) {
				c.cycles += c.cfg.MispredictPenalty
				c.stats.StallCycles += c.cfg.MispredictPenalty
			}
		case OpFPAdd, OpFPMul, OpFMA:
			c.stats.FPOps++
		case OpVecALU, OpVecFMA:
			c.stats.VecFPOps++
		}

		c.instretFx += uint64(c.cfg.expansion(u.Class))
		c.stats.Uops++

		if c.nextTimer != 0 && c.cycles >= c.nextTimer {
			timerCycles := c.cfg.TimerHandlerCycles
			c.cycles += timerCycles
			c.instretFx += timerCycles << 8
			c.nextTimer += c.cfg.TimerIntervalCycles
			c.stats.TimerTicks++
			c.timerSinceFlush += timerCycles
		}

		flops := uint64(u.Flops)
		specFlops := flops
		if flops > 0 && c.replayFP > 0 {
			specFlops += flops
			c.replayFP--
		}
		c.stats.Flops += flops
		c.stats.SpecFlops += specFlops
		c.stats.IntOps += uint64(u.IntOps)
	}
}

// regionObserved charges a region while a sampler is armed and
// signals other than cycles, instret and the mode cycles are watched:
// one uop at a time through the charge loop, flushing after each, so
// an overflow on an event counter fires at the uop that crossed it.
func (c *Core) regionObserved(tmpl []Uop, dyn []RegionDyn, salt uint32) {
	for i := range tmpl {
		c.chargeRegion(tmpl[i:i+1], dyn[i:i+1], salt)
		c.FlushEvents()
	}
}
