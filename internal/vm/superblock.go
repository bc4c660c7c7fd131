package vm

import (
	"sync/atomic"

	"mperf/internal/ir"
	"mperf/internal/machine"
)

// This file implements superblock execution, the VM's one dispatch
// loop: straight-line regions — basic blocks and single-predecessor
// chains of unconditionally linked blocks — are fused at plan time into
// immutable charge templates, and the dispatch loop charges each region
// through one machine.Core.ExecRegion call. Instruction semantics run
// through the pre-bound step executors; emit records each uop's dynamic
// operands (address, branch outcome, indirect target) into a pending
// buffer that is flushed at region exits, before calls and intrinsics
// (whose runtimes read the cycle clock), at returns, and on traps — so
// the charge sequence seen by the core is exactly the program-order
// per-instruction sequence.
//
// An activation that starts with an overflow sampler armed skips loop
// kernels and chains: it runs every block as its own region behind a
// block boundary (flush, then the block's PC), the granularity at which
// samples attribute. TestSuperblockInvariance pins the profiles of
// every collector mode across the workload catalog against the
// per-instruction reference dispatcher kept in test code.

// CodegenTag returns the cache-key component describing the VM's plan
// and execution scheme. Program caches must include it in their keys
// so artifacts are never reused across codegen changes.
func CodegenTag() string { return "cg3" }

// ExecStats aggregates superblock coverage counters across machines —
// how much of the executed instruction stream ran fused and how often
// specialized loop kernels hit. Machines flush into it on Release (and
// on FlushExecStats); it is safe for concurrent use. Coverage is
// deliberately kept out of Profile output, which depends only on the
// simulated machine.
type ExecStats struct {
	// TotalSteps counts interpreted IR instructions.
	TotalSteps atomic.Uint64
	// FusedSteps counts instructions executed through superblock
	// regions (charge batched via ExecRegion).
	FusedSteps atomic.Uint64
	// KernelHits counts entries into specialized loop kernels.
	KernelHits atomic.Uint64
	// KernelIters counts loop iterations executed by specialized
	// kernels.
	KernelIters atomic.Uint64
}

// SetExecStats installs a coverage accumulator the machine flushes
// into on Release (or FlushExecStats).
func (m *Machine) SetExecStats(st *ExecStats) { m.execStats = st }

// FlushExecStats adds the machine's coverage counters into the
// installed accumulator and zeroes them.
func (m *Machine) FlushExecStats() {
	if m.execStats == nil {
		return
	}
	m.execStats.TotalSteps.Add(m.steps - m.statBase)
	m.execStats.FusedSteps.Add(m.fusedSteps)
	m.execStats.KernelHits.Add(m.kernelHits)
	m.execStats.KernelIters.Add(m.kernelIters)
	m.statBase = m.steps
	m.fusedSteps, m.kernelHits, m.kernelIters = 0, 0, 0
}

// buildRegions fuses a planned function's blocks into superblocks:
// every block gets an immutable charge template (raw register ids;
// salted into scoreboard slots at charge time), and every block heads
// a maximal chain through unconditional branches into
// single-predecessor successors — a straight-line region with no side
// entries, charged as one unit.
func buildRegions(fp *funcPlan) {
	for _, bp := range fp.blocks {
		bp.tmpl = make([]machine.Uop, len(bp.steps))
		for i := range bp.steps {
			st := &bp.steps[i]
			u := st.proto
			u.Dst = st.dst
			u.Src1, u.Src2, u.Src3 = st.srcRegs[0], st.srcRegs[1], st.srcRegs[2]
			bp.tmpl[i] = u
		}
	}

	preds := make([]int, len(fp.blocks))
	preds[fp.entry.index]++ // the function-entry edge
	for _, bp := range fp.blocks {
		term := &bp.steps[len(bp.steps)-1]
		for _, tgt := range term.targets {
			preds[tgt.index]++
		}
	}

	for _, bp := range fp.blocks {
		chain := []*blockPlan{bp}
		cur := bp
		for {
			term := &cur.steps[len(cur.steps)-1]
			if term.in.Op != ir.OpBr {
				break
			}
			nxt := term.targets[0]
			if nxt == cur || nxt == fp.entry || preds[nxt.index] != 1 {
				break
			}
			// Guard against cycles of dead single-predecessor blocks.
			if chainContains(chain, nxt) {
				break
			}
			chain = append(chain, nxt)
			cur = nxt
		}
		bp.chain = chain
		if len(chain) == 1 {
			bp.chainTmpl = bp.tmpl
			continue
		}
		n := 0
		for _, cb := range chain {
			n += len(cb.tmpl)
		}
		ct := make([]machine.Uop, 0, n)
		for _, cb := range chain {
			ct = append(ct, cb.tmpl...)
		}
		bp.chainTmpl = ct
	}
}

func chainContains(chain []*blockPlan, bp *blockPlan) bool {
	for _, cb := range chain {
		if cb == bp {
			return true
		}
	}
	return false
}

// flushPending charges the deferred uops of the current region through
// the core in one call and advances the flush cursor. It is called at
// region exits, before calls (so callee-side clock reads and charges
// interleave in program order), and from Run's trap recovery (the
// pending prefix is exactly the set of uops that completed before the
// trap).
func (m *Machine) flushPending() {
	if m.pendN == 0 {
		return
	}
	n := m.pendFrom + m.pendN
	m.hart.Core.ExecRegion(m.pendTmpl[m.pendFrom:n], m.pendDyn[m.pendFrom:n], m.pendSalt)
	m.pendFrom, m.pendN = n, 0
}

// callFused executes one activation region-at-a-time, with charges
// deferred into the pending buffers and batched through one ExecRegion
// call per region. Without an armed sampler, event delivery is pure
// accumulation, so block-edge flushes are coalesced to region
// granularity and self-loops may run as specialized kernels. An
// activation that starts with a sampler armed runs each block as its
// own region, preceded by a block boundary and the block's PC, so
// samples fire and attribute exactly where a per-instruction loop
// would deliver them. The sampling state only changes between runs or
// inside an already-sampling run, so checking it once per activation is
// stable for the whole activation tree. Per-block step budgeting is
// exact either way.
func (m *Machine) callFused(fp *funcPlan, args []uint64) (uint64, []uint64) {
	fr := m.pushFrame(fp, args)
	core := m.hart.Core
	sampling := core.SamplingActive()

	bp := fp.entry
	for {
		chain, tmpl := bp.chain, bp.chainTmpl
		if sampling {
			chain, tmpl = chain[:1], bp.tmpl
		} else if kern := bp.kernel; kern != nil {
			if next := kern(m, fr, bp); next != nil {
				if next == retMarker {
					break
				}
				bp = next
				continue
			}
			// Kernel declined (shape guard failed at runtime); fall
			// through to the generic region executor.
		}
		if len(m.pendDyn) < len(tmpl) {
			m.pendDyn = make([]machine.RegionDyn, len(tmpl)+64)
		}
		m.pendTmpl = tmpl
		m.pendFrom, m.pendN = 0, 0
		m.pendSalt = fr.salt

		var next *blockPlan
		for _, cb := range chain {
			m.steps += uint64(len(cb.steps))
			if m.steps > m.MaxSteps {
				trapf("step budget exceeded (%d)", m.MaxSteps)
			}
			m.fusedSteps += uint64(len(cb.steps))
			if sampling {
				// Flush before moving the PC: samples fired by the
				// flush attribute the previous block's cycles to the
				// block (and frame) that accumulated them.
				core.BlockBoundary()
				core.SetPC(cb.pc)
			}
			fr.curPC = cb.pc

			steps := cb.steps
			next = nil
			for i := range steps {
				st := &steps[i]
				if next = st.exec(m, fr, st); next != nil {
					break
				}
			}
			if next == nil {
				trapf("block %s fell through without terminator", cb.block.BName)
			}
			if next == retMarker {
				break
			}
		}
		m.flushPending()
		if next == retMarker {
			break
		}
		bp = next
	}

	// Deliver batched deltas before control leaves the frame, so
	// callers (and post-run counter reads) see settled values.
	core.FlushEvents()
	m.popFrame(fr)
	return fr.retVal, fr.retVec
}
