package machine

// branchPredictor models the front-end's direction and indirect-target
// prediction. Direction prediction is a gshare-style table of two-bit
// saturating counters; indirect prediction is a target cache optionally
// indexed with global history (history-indexed BTBs are what let the
// x86 reference resolve interpreter dispatch so much better than the
// simple last-target predictors on the in-order RISC-V cores — the
// microarchitectural root of the paper's Table 2 IPC gap).
type branchPredictor struct {
	dir     []uint8
	dirMask uint32

	btb     []uint64
	btbMask uint32

	history     uint32 // conditional-branch global history
	ihist       uint32 // indirect-target history (separate, as in modern front-ends)
	histIndexed uint   // history bits folded into BTB index (0 = last-target)

	// Statistics.
	Branches    uint64
	Mispredicts uint64
}

func newBranchPredictor(dirBits, btbBits, indirectHistoryBits uint) *branchPredictor {
	if dirBits == 0 {
		dirBits = 10
	}
	if btbBits == 0 {
		btbBits = 9
	}
	p := &branchPredictor{
		dir:         make([]uint8, 1<<dirBits),
		dirMask:     uint32(1<<dirBits - 1),
		btb:         make([]uint64, 1<<btbBits),
		btbMask:     uint32(1<<btbBits - 1),
		histIndexed: indirectHistoryBits,
	}
	// Weakly taken initial state: loops predict well immediately.
	for i := range p.dir {
		p.dir[i] = 2
	}
	return p
}

// conditional records the outcome of a conditional branch and reports
// whether it was mispredicted.
func (p *branchPredictor) conditional(brID uint32, taken bool) bool {
	p.Branches++
	idx := (brID ^ p.history) & p.dirMask
	ctr := p.dir[idx]
	predicted := ctr >= 2
	if taken && ctr < 3 {
		p.dir[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		p.dir[idx] = ctr - 1
	}
	p.history = p.history<<1 | b2u(taken)
	if predicted != taken {
		p.Mispredicts++
		return true
	}
	return false
}

// indirect records the resolved target of an indirect jump and reports
// whether the target predictor missed it. History-indexed predictors
// fold the recent indirect-target path into the index (ITTAGE-style),
// which is what lets the x86 reference learn a bytecode interpreter's
// dispatch sequence while a plain last-target BTB mispredicts almost
// every non-repeated opcode — the Table 2 IPC gap's front-end half.
func (p *branchPredictor) indirect(brID uint32, target uint64) bool {
	p.Branches++
	idx := brID
	if p.histIndexed > 0 {
		idx ^= p.ihist & (1<<p.histIndexed - 1)
	}
	slot := idx & p.btbMask
	hit := p.btb[slot] == target
	p.btb[slot] = target
	// Fold target bits into the indirect history path.
	p.ihist = p.ihist<<4 | uint32(target>>6&15)
	if !hit {
		p.Mispredicts++
		return true
	}
	return false
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
