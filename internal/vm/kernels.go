package vm

import (
	"math"

	"mperf/internal/ir"
	"mperf/internal/machine"
)

// This file implements template specialization for the dominant inner
// loops of the catalog kernels: self-loop blocks whose bodies are
// built entirely from a small micro-op vocabulary (strided loads and
// stores, splats, f32 FMAs, i64 induction arithmetic, a trailing
// conditional branch) are compiled at plan time into loop recipes, and
// a recipe executes as a hand-written Go loop — no step closures, no
// operand resolution, no per-uop emit — that fills the block's dynamic
// operands and charges one region per iteration through ExecRegion.
// The vocabulary covers the matmul k-loops (scalar and vectorized),
// the streaming triad/memset loops, and anything else of that shape.
//
// A kernel is an optimization of the generic fused executor only: it
// performs exactly the same semantic effects in the same order (body,
// then the back-edge phi parallel copy) and charges exactly the same
// region template per iteration, so profiles are bit-identical — the
// differential invariance test covers catalog workloads whose hot
// loops run through these kernels. Any block that steps outside the
// vocabulary simply never gets a kernel and runs generically.

// kOp kinds. Each recipe op corresponds 1:1 to a block step (and so to
// a slot of the block's charge template).
const (
	kLoad     uint8 = iota // dst = mem[a + off], scalar
	kVecLoad               // dst[lanes] = mem[a + off ...], strided by elem
	kStore                 // mem[b + off] = a, scalar
	kVecStore              // mem[b + off ...] = a[lanes]
	kSplat                 // dst[lanes] = broadcast a
	kFMA                   // dst = f32(a*b + c), float64 intermediate
	kVecFMA                // lane-wise kFMA over vector regs a, b, c
	kAdd                   // dst = a + b (i64)
	kMul                   // dst = a * b (i64)
	kICmp                  // dst = pred(a, b) (signed i64)
	kGEP                   // dst = a + b*scale
	kCondBr                // taken = (a != 0); must be the last op
	kCount                 // mperf.count(a, cnt...) — pure accumulation
)

// kOp is one pre-compiled micro-op of a loop recipe. a, b, c are
// register ids (-1 = use the corresponding immediate).
type kOp struct {
	kind    uint8
	pred    ir.Pred
	lanes   int32
	dst     int32
	a, b, c int32
	aImm    uint64
	bImm    uint64
	cImm    uint64
	off     int64    // load/store byte offset (in.Scale)
	scale   int64    // gep element size (in.Scale)
	cnt     [4]int64 // mperf.count constant block costs
	elem    ir.Type
	elemSz  uint64
}

// kMove is one back-edge phi parallel-copy assignment.
type kMove struct {
	dst    int32
	src    int32
	srcImm uint64
	isVec  bool
	lanes  int
}

// loopRecipe is the compiled form of a specialized self-loop.
type loopRecipe struct {
	ops       []kOp
	selfMoves []kMove
	exit      *blockPlan
	predIdx   int32
	// vecTys are the distinct vector types the body touches, checked
	// against the platform once per loop entry (the generic path
	// checks per step; the first iteration would trap identically).
	vecTys []ir.Type
}

// matchKernels inspects a planned function's blocks and installs
// specialized loop kernels where a block matches the vocabulary.
func matchKernels(fp *funcPlan) {
	for _, bp := range fp.blocks {
		if rec := matchLoopRecipe(bp); rec != nil {
			bp.kernel = makeLoopKernel(bp, rec)
		}
	}
}

// kOperand converts a step operand into (reg, imm) form, declining
// vector immediates.
func kOperand(op *operand) (int32, uint64, bool) {
	if op.vecImm != nil {
		return 0, 0, false
	}
	return op.reg, op.imm, true
}

// matchLoopRecipe recognizes a specializable self-loop: a block whose
// terminator is condbr(cond, self, exit) and whose body uses only the
// kernel vocabulary. Returns nil if the block does not qualify.
func matchLoopRecipe(bp *blockPlan) *loopRecipe {
	n := len(bp.steps)
	if n < 2 {
		return nil
	}
	term := &bp.steps[n-1]
	if term.in.Op != ir.OpCondBr || len(term.targets) != 2 {
		return nil
	}
	if term.targets[0] != bp || term.targets[1] == bp {
		return nil
	}
	if term.args[0].reg < 0 {
		return nil
	}

	rec := &loopRecipe{exit: term.targets[1], predIdx: int32(bp.index), ops: make([]kOp, 0, len(bp.steps))}
	addVecTy := func(ty ir.Type) {
		for _, t := range rec.vecTys {
			if t == ty {
				return
			}
		}
		rec.vecTys = append(rec.vecTys, ty)
	}

	for i := range bp.steps {
		st := &bp.steps[i]
		in := st.in
		op := kOp{dst: st.dst, a: -1, b: -1, c: -1}
		switch in.Op {
		case ir.OpLoad:
			a, aImm, ok := kOperand(&st.args[0])
			if !ok {
				return nil
			}
			op.a, op.aImm, op.off = a, aImm, in.Scale
			if in.Ty.IsVector() {
				op.kind = kVecLoad
				op.elem = in.Ty.Elem()
				op.elemSz = uint64(op.elem.Size())
				op.lanes = int32(in.Ty.Lanes)
				addVecTy(in.Ty)
			} else {
				op.kind = kLoad
				op.elem = in.Ty
			}
		case ir.OpStore:
			a, aImm, ok := kOperand(&st.args[0])
			if !ok {
				return nil
			}
			b, bImm, ok := kOperand(&st.args[1])
			if !ok {
				return nil
			}
			op.a, op.aImm, op.b, op.bImm, op.off = a, aImm, b, bImm, in.Scale
			ty := in.Args[0].Type()
			if ty.IsVector() {
				if !st.args[0].isVec || a < 0 {
					return nil // scalar-splat stores stay generic
				}
				op.kind = kVecStore
				op.elem = ty.Elem()
				op.elemSz = uint64(op.elem.Size())
				op.lanes = int32(ty.Lanes)
				addVecTy(ty)
			} else {
				op.kind = kStore
				op.elem = ty
			}
		case ir.OpSplat:
			a, aImm, ok := kOperand(&st.args[0])
			if !ok || st.args[0].isVec {
				return nil
			}
			op.kind, op.a, op.aImm = kSplat, a, aImm
			op.lanes = int32(in.Ty.Lanes)
			addVecTy(in.Ty)
		case ir.OpFMA:
			if in.Ty.Elem().Kind != ir.KF32 {
				return nil
			}
			var ok bool
			if op.a, op.aImm, ok = kOperand(&st.args[0]); !ok {
				return nil
			}
			if op.b, op.bImm, ok = kOperand(&st.args[1]); !ok {
				return nil
			}
			if op.c, op.cImm, ok = kOperand(&st.args[2]); !ok {
				return nil
			}
			if in.Ty.IsVector() {
				if !st.args[0].isVec || !st.args[1].isVec || !st.args[2].isVec {
					return nil
				}
				op.kind = kVecFMA
				op.lanes = int32(in.Ty.Lanes)
				addVecTy(in.Ty)
			} else {
				op.kind = kFMA
			}
		case ir.OpAdd, ir.OpMul:
			if in.Ty.Kind != ir.KI64 {
				return nil
			}
			var ok bool
			if op.a, op.aImm, ok = kOperand(&st.args[0]); !ok {
				return nil
			}
			if op.b, op.bImm, ok = kOperand(&st.args[1]); !ok {
				return nil
			}
			if in.Op == ir.OpMul {
				op.kind = kMul
			} else {
				op.kind = kAdd
			}
		case ir.OpICmp:
			if in.Args[0].Type().Kind != ir.KI64 {
				return nil
			}
			var ok bool
			if op.a, op.aImm, ok = kOperand(&st.args[0]); !ok {
				return nil
			}
			if op.b, op.bImm, ok = kOperand(&st.args[1]); !ok {
				return nil
			}
			op.kind, op.pred = kICmp, in.Pred
		case ir.OpGEP:
			var ok bool
			if op.a, op.aImm, ok = kOperand(&st.args[0]); !ok {
				return nil
			}
			if op.b, op.bImm, ok = kOperand(&st.args[1]); !ok {
				return nil
			}
			op.kind, op.scale = kGEP, in.Scale
		case ir.OpCall:
			// The roofline instrumentation's counting intrinsic is pure
			// accumulation (no clock read), so charge/count interleaving
			// is unobservable and the call may run inside a kernel. The
			// cost arguments are compile-time constants by construction.
			if st.callee == nil || st.callee.intrinsic != "mperf.count" ||
				st.dst >= 0 || len(st.args) != 5 {
				return nil
			}
			var ok bool
			if op.a, op.aImm, ok = kOperand(&st.args[0]); !ok {
				return nil
			}
			for j := 1; j < 5; j++ {
				if st.args[j].reg >= 0 || st.args[j].isVec {
					return nil
				}
				op.cnt[j-1] = int64(st.args[j].imm)
			}
			op.kind = kCount
		case ir.OpCondBr:
			if i != n-1 {
				return nil
			}
			op.kind, op.a = kCondBr, st.args[0].reg
		default:
			return nil
		}
		rec.ops = append(rec.ops, op)
	}

	// Back-edge phi parallel copy. Sequential application is only
	// correct when no copy's source is another copy's destination.
	var dsts []int32
	for _, mv := range bp.movesFrom[bp.index] {
		if mv.src.vecImm != nil || (mv.isVec && mv.src.reg < 0) {
			return nil
		}
		dsts = append(dsts, mv.dst)
		rec.selfMoves = append(rec.selfMoves, kMove{
			dst: mv.dst, src: mv.src.reg, srcImm: mv.src.imm,
			isVec: mv.isVec, lanes: mv.lanes,
		})
	}
	for _, mv := range rec.selfMoves {
		for _, d := range dsts {
			if mv.src >= 0 && mv.src == d {
				return nil
			}
		}
	}
	return rec
}

// kval fetches a recipe operand: register when r >= 0, else the
// immediate.
func kval(fr *frame, r int32, imm uint64) uint64 {
	if r >= 0 {
		return fr.regs[r]
	}
	return imm
}

// kvec fetches a vector register, with the generic path's
// read-before-write trap.
func kvec(fr *frame, r int32) []uint64 {
	v := fr.vregs[r]
	if v == nil {
		trapf("vector register read before write")
	}
	return v
}

// fma32 is fmaKernel's f32 arithmetic: float64 intermediates, exactly
// like the step executor, so results stay bit-identical.
func fma32(a, b, c uint64) uint64 {
	z := float64(math.Float32frombits(uint32(a)))*float64(math.Float32frombits(uint32(b))) +
		float64(math.Float32frombits(uint32(c)))
	return uint64(math.Float32bits(float32(z)))
}

// kCmp evaluates a signed i64 comparison.
func kCmp(pred ir.Pred, a, b int64) bool {
	switch pred {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	default:
		return a >= b
	}
}

// makeLoopKernel binds a recipe into the block's specialized executor.
func makeLoopKernel(bp *blockPlan, rec *loopRecipe) loopKernel {
	nsteps := uint64(len(bp.steps))
	tmpl := bp.tmpl
	return func(m *Machine, fr *frame, _ *blockPlan) *blockPlan {
		for _, ty := range rec.vecTys {
			m.checkVector(ty)
		}
		if len(m.kernDyn) < len(tmpl) {
			m.kernDyn = make([]machine.RegionDyn, len(tmpl))
		}
		dyn := m.kernDyn[:len(tmpl)]
		// Clear slots left by another kernel's recipe: ops that carry
		// no dynamic operand never write theirs.
		for i := range dyn {
			dyn[i] = machine.RegionDyn{}
		}
		core := m.hart.Core
		fr.curPC = bp.pc
		ops := rec.ops
		iters := uint64(0)
		for {
			// Per-iteration step budget, checked before the iteration
			// executes — the same schedule as the generic block loop.
			m.steps += nsteps
			if m.steps > m.MaxSteps {
				m.kernelIters += iters
				m.fusedSteps += nsteps * iters
				trapf("step budget exceeded (%d)", m.MaxSteps)
			}
			taken := false
			for i := range ops {
				op := &ops[i]
				switch op.kind {
				case kLoad:
					addr := uint64(int64(kval(fr, op.a, op.aImm)) + op.off)
					fr.regs[op.dst] = m.loadScalar(addr, op.elem)
					dyn[i].Addr = addr
				case kVecLoad:
					addr := uint64(int64(kval(fr, op.a, op.aImm)) + op.off)
					out := fr.vregDst(op.dst, int(op.lanes))
					for l := range out {
						out[l] = m.loadScalar(addr+uint64(l)*op.elemSz, op.elem)
					}
					dyn[i].Addr = addr
				case kStore:
					addr := uint64(int64(kval(fr, op.b, op.bImm)) + op.off)
					m.storeScalar(addr, op.elem, kval(fr, op.a, op.aImm))
					dyn[i].Addr = addr
				case kVecStore:
					addr := uint64(int64(kval(fr, op.b, op.bImm)) + op.off)
					vec := kvec(fr, op.a)
					for l, bits := range vec {
						m.storeScalar(addr+uint64(l)*op.elemSz, op.elem, bits)
					}
					dyn[i].Addr = addr
				case kSplat:
					out := fr.vregDst(op.dst, int(op.lanes))
					s := kval(fr, op.a, op.aImm)
					for l := range out {
						out[l] = s
					}
				case kFMA:
					fr.regs[op.dst] = fma32(
						kval(fr, op.a, op.aImm), kval(fr, op.b, op.bImm), kval(fr, op.c, op.cImm))
				case kVecFMA:
					va, vb, vc := kvec(fr, op.a), kvec(fr, op.b), kvec(fr, op.c)
					out := fr.vregDst(op.dst, int(op.lanes))
					for l := range out {
						out[l] = fma32(va[l], vb[l], vc[l])
					}
				case kAdd:
					fr.regs[op.dst] = kval(fr, op.a, op.aImm) + kval(fr, op.b, op.bImm)
				case kMul:
					fr.regs[op.dst] = kval(fr, op.a, op.aImm) * kval(fr, op.b, op.bImm)
				case kICmp:
					var r uint64
					if kCmp(op.pred, int64(kval(fr, op.a, op.aImm)), int64(kval(fr, op.b, op.bImm))) {
						r = 1
					}
					fr.regs[op.dst] = r
				case kGEP:
					fr.regs[op.dst] = uint64(
						int64(kval(fr, op.a, op.aImm)) + int64(kval(fr, op.b, op.bImm))*op.scale)
				case kCondBr:
					taken = fr.regs[op.a] != 0
					dyn[i].Taken = taken
				case kCount:
					if m.rt == nil {
						trapf("call to mperf.count with no runtime installed")
					}
					m.rt.Count(int64(kval(fr, op.a, op.aImm)),
						op.cnt[0], op.cnt[1], op.cnt[2], op.cnt[3])
				}
			}
			core.ExecRegion(tmpl, dyn, fr.salt)
			iters++
			if !taken {
				break
			}
			for _, mv := range rec.selfMoves {
				if mv.isVec {
					copy(fr.vregDst(mv.dst, mv.lanes), kvec(fr, mv.src))
				} else {
					fr.regs[mv.dst] = kval(fr, mv.src, mv.srcImm)
				}
			}
		}
		m.kernelHits++
		m.kernelIters += iters
		m.fusedSteps += nsteps * iters
		m.phiMoves(fr, rec.exit, rec.predIdx)
		return rec.exit
	}
}
