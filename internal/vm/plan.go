// Package vm interprets the mini-LLVM IR on a simulated core. It is
// the execution substrate that makes the two halves of the paper meet:
// every interpreted instruction is charged through the machine
// package's pipeline model (so PMU counters, sampling and flame graphs
// see it), while calls to the mperf.* intrinsics flow into the
// instrumentation runtime (so the compiler-driven Roofline counters
// see the same execution).
package vm

import (
	"fmt"

	"mperf/internal/ir"
	"mperf/internal/machine"
)

// operand is a pre-resolved instruction input: a register or an
// immediate.
type operand struct {
	reg int32  // >= 0: register id; -1: immediate
	imm uint64 // immediate bits when reg < 0
	// isVec records (at plan time) whether the operand is a
	// vector-typed value, so the hot loop never has to probe vregs to
	// classify it.
	isVec bool
	// vecImm is non-nil for (rare) vector immediates.
	vecImm []uint64
}

// execFn is one step's pre-bound executor. It returns nil to fall
// through to the next step, the successor blockPlan on a taken control
// transfer, or retMarker after storing the return value in the frame.
type execFn func(m *Machine, fr *frame, st *step) *blockPlan

// retMarker is the sentinel successor signalling a function return.
var retMarker = &blockPlan{}

// step is one pre-decoded instruction.
type step struct {
	in   *ir.Instr
	dst  int32 // destination register, -1 for none
	args []operand

	// exec is the threaded-dispatch executor: op, operand kinds and
	// width masks are resolved once at plan time, so the interpreter
	// loop is a single indirect call per instruction with no opcode
	// switch on the hot path.
	exec execFn

	// proto is the pre-computed micro-op template: class, access size,
	// branch id and retired-work counts are plan-time constants.
	// buildRegions adds the raw register ids to it to form the block's
	// charge template.
	proto machine.Uop
	// srcRegs holds the first three operand registers (-1 when absent).
	srcRegs [3]int32

	// blockIdx/blockPC identify the owning block: blockIdx is the
	// phi-predecessor index a terminator hands to phiMoves (plan-time
	// constant, so a stale edge is impossible), blockPC restores the
	// architectural PC after a call returns mid-block.
	blockIdx int32
	blockPC  uint64

	// Pre-resolved call plan (nil for intrinsics).
	callee *funcPlan
	// Pre-resolved branch targets, parallel to in.Blocks.
	targets []*blockPlan
}

// phiMove is one parallel-copy assignment performed on a CFG edge.
type phiMove struct {
	dst   int32
	src   operand
	isVec bool
	lanes int
}

// loopKernel is a specialized executor for a recognized hot-loop
// block shape (see kernels.go): it iterates the loop natively,
// charging per-iteration region deltas, and returns the successor
// block after performing the exit edge's phi moves — or nil to decline
// at runtime and fall back to the generic region executor.
type loopKernel func(m *Machine, fr *frame, bp *blockPlan) *blockPlan

// blockPlan is a pre-decoded basic block.
type blockPlan struct {
	block *ir.Block
	index int
	steps []step
	// movesFrom holds, per predecessor block index, the phi parallel
	// copies for that edge.
	movesFrom [][]phiMove
	// pc is the synthetic address of this block for sampling.
	pc uint64

	// Superblock execution (superblock.go): tmpl is the block's
	// immutable charge template (uops carrying raw register ids,
	// salted into scoreboard slots at charge time); chain is the
	// maximal single-predecessor chain headed by this block; chainTmpl
	// concatenates the chain's templates into one region template.
	tmpl      []machine.Uop
	chain     []*blockPlan
	chainTmpl []machine.Uop
	// kernel, when non-nil, is a specialized native executor for this
	// block's recognized loop shape.
	kernel loopKernel
}

// funcPlan is a pre-decoded function. Plans are immutable after
// Compile: they are shared by every machine of a Program, so all
// per-activation state (including frame pooling) lives on the Machine.
type funcPlan struct {
	fn      *ir.Func
	entry   *blockPlan
	blocks  []*blockPlan
	numRegs int
	base    uint64 // synthetic address range [base, base+size)
	size    uint64
	// index is the plan's position in the program's plan order; it keys
	// the per-machine frame pools.
	index int
	// intrinsic is non-empty for runtime-dispatched declarations.
	intrinsic string
}

// planner compiles a module into executable plans.
type planner struct {
	prog     *Program
	plans    map[*ir.Func]*funcPlan
	nextBase uint64
	nextBrID uint32
}

// blockAddrStride spaces block PCs within a function's address range.
const blockAddrStride = 64

func (p *planner) planModule(mod *ir.Module) error {
	for i, f := range mod.Funcs {
		fp := &funcPlan{fn: f, base: p.nextBase, index: i}
		if len(f.Blocks) == 0 {
			if !isIntrinsic(f.FName) {
				return fmt.Errorf("vm: function @%s has no body and is not a runtime intrinsic", f.FName)
			}
			fp.intrinsic = f.FName
			fp.size = blockAddrStride
		} else {
			fp.size = uint64(len(f.Blocks)+1) * blockAddrStride
		}
		p.nextBase += fp.size + blockAddrStride
		p.plans[f] = fp
	}
	for _, f := range mod.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		if err := p.planFunc(f); err != nil {
			return fmt.Errorf("vm: @%s: %w", f.FName, err)
		}
	}
	for _, f := range mod.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		fp := p.plans[f]
		buildRegions(fp)
		matchKernels(fp)
	}
	return nil
}

func isIntrinsic(name string) bool {
	return len(name) > 6 && name[:6] == "mperf."
}

// planFunc assigns register ids and pre-decodes every block.
func (p *planner) planFunc(f *ir.Func) error {
	fp := p.plans[f]

	// Size every table and slice up front: planning runs on each warm
	// artifact load, where growth copies are a visible share.
	numValues := len(f.Params)
	for _, b := range f.Blocks {
		numValues += len(b.Instrs)
	}
	regs := make(map[ir.Value]int32, numValues)
	next := int32(0)
	for _, prm := range f.Params {
		regs[prm] = next
		next++
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Ty != ir.Void {
				regs[in] = next
				next++
			}
		}
	}
	fp.numRegs = int(next)

	blockIdx := make(map[*ir.Block]int, len(f.Blocks))
	fp.blocks = make([]*blockPlan, 0, len(f.Blocks))
	for i, b := range f.Blocks {
		bp := &blockPlan{block: b, index: i, pc: fp.base + uint64(i+1)*blockAddrStride}
		fp.blocks = append(fp.blocks, bp)
		blockIdx[b] = i
	}
	fp.entry = fp.blocks[0]

	resolve := func(v ir.Value) (operand, error) {
		switch x := v.(type) {
		case *ir.Const:
			return operand{reg: -1, imm: constBits(x)}, nil
		case *ir.Global:
			addr, ok := p.prog.globalAddr[x.GName]
			if !ok {
				return operand{}, fmt.Errorf("unallocated global @%s", x.GName)
			}
			return operand{reg: -1, imm: addr}, nil
		case *ir.Param, *ir.Instr:
			r, ok := regs[v]
			if !ok {
				return operand{}, fmt.Errorf("operand %s has no register", v)
			}
			return operand{reg: r, isVec: v.Type().IsVector()}, nil
		case *ir.Func:
			return operand{}, fmt.Errorf("function-valued operands are not executable")
		}
		return operand{}, fmt.Errorf("unknown operand kind %T", v)
	}

	for bi, b := range f.Blocks {
		bp := fp.blocks[bi]
		bp.movesFrom = make([][]phiMove, len(f.Blocks))
		bp.steps = make([]step, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				// Phis execute as parallel copies on the incoming edge.
				for i, pred := range in.Blocks {
					src, err := resolve(in.Args[i])
					if err != nil {
						return err
					}
					pi := blockIdx[pred]
					bp.movesFrom[pi] = append(bp.movesFrom[pi], phiMove{
						dst: regs[in], src: src,
						isVec: in.Ty.IsVector(), lanes: in.Ty.Lanes,
					})
				}
				continue
			}
			st := step{in: in, dst: -1, blockIdx: int32(bi), blockPC: bp.pc}
			if in.Ty != ir.Void {
				st.dst = regs[in]
			}
			if len(in.Args) > 0 {
				st.args = make([]operand, 0, len(in.Args))
			}
			for _, a := range in.Args {
				op, err := resolve(a)
				if err != nil {
					return err
				}
				st.args = append(st.args, op)
			}
			for _, t := range in.Blocks {
				st.targets = append(st.targets, fp.blocks[blockIdx[t]])
			}
			if in.Op == ir.OpCall {
				cp, ok := p.plans[in.Callee]
				if !ok {
					return fmt.Errorf("call to unplanned function @%s", in.Callee.FName)
				}
				st.callee = cp
			}
			p.fillUopTemplate(&st)
			st.exec = buildExec(in)
			bp.steps = append(bp.steps, st)
		}
	}
	return nil
}

// fillUopTemplate pre-computes the machine-level classification of a
// step: op class, retired-work counts, lanes, access size, branch id.
func (p *planner) fillUopTemplate(st *step) {
	in := st.in
	st.srcRegs = [3]int32{-1, -1, -1}
	for i := 0; i < len(st.args) && i < 3; i++ {
		st.srcRegs[i] = st.args[i].reg
	}
	lanes := 1
	if in.Ty.IsVector() {
		lanes = in.Ty.Lanes
	}
	ulanes := uint8(lanes)
	var class machine.OpClass
	var flops, intops, brID uint32
	var size int32
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpICmp, ir.OpSelect,
		ir.OpGEP, ir.OpAlloca,
		ir.OpZExt, ir.OpSExt, ir.OpTrunc, ir.OpSIToFP, ir.OpFPToSI,
		ir.OpFPExt, ir.OpFPTrunc:
		class = machine.OpIntALU
		if in.Ty.IsInteger() || in.Op == ir.OpGEP {
			intops = uint32(lanes)
		}
	case ir.OpMul:
		class = machine.OpIntMul
		intops = uint32(lanes)
	case ir.OpSDiv, ir.OpSRem:
		class = machine.OpIntDiv
		intops = uint32(lanes)
	case ir.OpFAdd, ir.OpFSub, ir.OpFCmp:
		class = machine.OpFPAdd
		flops = uint32(lanes)
	case ir.OpFMul:
		class = machine.OpFPMul
		flops = uint32(lanes)
	case ir.OpFDiv:
		class = machine.OpFPDiv
		flops = uint32(lanes)
	case ir.OpFMA:
		class = machine.OpFMA
		flops = uint32(2 * lanes)
	case ir.OpSplat:
		class = machine.OpVecALU
	case ir.OpExtract:
		class = machine.OpVecALU
	case ir.OpReduce:
		class = machine.OpVecALU
		if v := in.Args[0].Type(); v.Elem().IsFloat() {
			flops = uint32(v.Lanes - 1)
		}
	case ir.OpLoad:
		class = machine.OpLoad
		size = int32(in.Ty.Size())
		if in.Ty.IsVector() {
			class = machine.OpVecLoad
		}
	case ir.OpStore:
		class = machine.OpStore
		size = int32(in.Args[0].Type().Size())
		if in.Args[0].Type().IsVector() {
			class = machine.OpVecStore
			ulanes = uint8(in.Args[0].Type().Lanes)
		}
	case ir.OpBr:
		class = machine.OpJump
	case ir.OpCondBr:
		class = machine.OpBranch
		p.nextBrID++
		brID = p.nextBrID
	case ir.OpSwitch:
		class = machine.OpIndirect
		p.nextBrID++
		brID = p.nextBrID
	case ir.OpCall:
		class = machine.OpCall
	case ir.OpRet:
		class = machine.OpRet
	default:
		class = machine.OpNop
	}
	// Vector arithmetic classes.
	if in.Ty.IsVector() {
		switch class {
		case machine.OpFPAdd, machine.OpFPMul, machine.OpFPDiv:
			class = machine.OpVecALU
		case machine.OpFMA:
			class = machine.OpVecFMA
		case machine.OpIntALU, machine.OpIntMul:
			class = machine.OpVecALU
		}
	}
	st.proto = machine.Uop{
		Class: class,
		Dst:   -1, Src1: -1, Src2: -1, Src3: -1,
		Size: size, BrID: brID,
		Flops: flops, IntOps: intops, Lanes: ulanes,
	}
}

// constBits converts a constant to its raw register representation.
func constBits(c *ir.Const) uint64 {
	if c.Ty.IsFloat() {
		return floatBits(c.Ty, c.Float)
	}
	return uint64(c.Int)
}
