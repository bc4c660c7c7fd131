package vm

import "mperf/internal/machine"

// referenceCall is the per-instruction reference dispatcher, the
// independent oracle for the superblock executor (TestSuperblockInvariance
// and TestTrapFlushesCounters switch to it through
// UseReferenceDispatch). It runs one block at a time with no chains
// and no loop kernels, enters every block through a block boundary and
// the block's PC, and charges every uop as soon as its step has run:
// the pending region is flushed after each step, so the core sees one
// charge per instruction, in program order, whether or not a sampler
// is armed.
func referenceCall(m *Machine, fp *funcPlan, args []uint64) (uint64, []uint64) {
	if fp.intrinsic != "" {
		return m.intrinsicCall(fp.intrinsic, args), nil
	}
	fr := m.pushFrame(fp, args)
	core := m.hart.Core
	bp := fp.entry
	for {
		m.steps += uint64(len(bp.steps))
		if m.steps > m.MaxSteps {
			trapf("step budget exceeded (%d)", m.MaxSteps)
		}
		core.BlockBoundary()
		core.SetPC(bp.pc)
		fr.curPC = bp.pc

		if len(m.pendDyn) < len(bp.tmpl) {
			m.pendDyn = make([]machine.RegionDyn, len(bp.tmpl))
		}
		m.pendTmpl, m.pendFrom, m.pendN, m.pendSalt = bp.tmpl, 0, 0, fr.salt
		var next *blockPlan
		for i := range bp.steps {
			st := &bp.steps[i]
			next = st.exec(m, fr, st)
			m.flushPending()
			if next != nil {
				break
			}
		}
		switch next {
		case nil:
			trapf("block %s fell through without terminator", bp.block.BName)
		case retMarker:
			core.FlushEvents()
			m.popFrame(fr)
			return fr.retVal, fr.retVec
		default:
			bp = next
		}
	}
}
