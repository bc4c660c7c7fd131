package ir

import "fmt"

// Verify checks the module's structural invariants: block termination,
// phi placement and coherence with predecessors, operand typing, call
// signatures, and SSA dominance. It returns the first problem found.
func Verify(m *Module) error {
	for _, f := range m.Funcs {
		if err := VerifyFunc(f); err != nil {
			return fmt.Errorf("@%s: %w", f.FName, err)
		}
	}
	return nil
}

// VerifyFunc checks one function. Functions without blocks are
// declarations (intrinsics resolved by the execution environment) and
// are vacuously valid.
func VerifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return nil
	}
	preds := Preds(f)
	if len(preds[f.Entry()]) > 0 {
		return fmt.Errorf("entry block %s has predecessors", f.Entry().BName)
	}
	for _, b := range f.Blocks {
		if err := verifyBlock(f, b, preds); err != nil {
			return err
		}
	}
	dom := newDomTree(f, preds)
	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue // unreachable code is legal, just not checked for dominance
		}
		for _, in := range b.Instrs {
			if in.Op == OpPhi {
				for i, v := range in.Args {
					if !dom.DominatesValueUse(v, in, in.Blocks[i]) {
						return fmt.Errorf("%s: phi %%%s incoming %s from %s does not dominate edge",
							b.BName, in.name, v, in.Blocks[i].BName)
					}
				}
				continue
			}
			for _, v := range in.Args {
				if !dom.DominatesValueUse(v, in, nil) {
					return fmt.Errorf("%s: use of %s in %s does not satisfy dominance",
						b.BName, v, formatInstr(in))
				}
			}
		}
	}
	return nil
}

func verifyBlock(f *Func, b *Block, preds map[*Block][]*Block) error {
	if len(b.Instrs) == 0 {
		return fmt.Errorf("block %s is empty", b.BName)
	}
	if b.Term() == nil {
		return fmt.Errorf("block %s does not end in a terminator", b.BName)
	}
	seenNonPhi := false
	for i, in := range b.Instrs {
		if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
			return fmt.Errorf("block %s: terminator %s mid-block", b.BName, in.Op)
		}
		if in.Op == OpPhi {
			if seenNonPhi {
				return fmt.Errorf("block %s: phi %%%s after non-phi instruction", b.BName, in.name)
			}
		} else {
			seenNonPhi = true
		}
		if err := verifyInstr(f, b, in, preds); err != nil {
			return fmt.Errorf("block %s: %s: %w", b.BName, describeInstr(in), err)
		}
	}
	return nil
}

// describeInstr renders an instruction that failed verification. Its
// operands need not match its opcode's shape (decoded modules come from
// outside), so a shape the printer cannot render falls back to the
// opcode and the value name.
func describeInstr(in *Instr) (s string) {
	defer func() {
		if recover() != nil {
			s = fmt.Sprintf("%s %%%s", in.Op, in.name)
		}
	}()
	return formatInstr(in)
}

func verifyInstr(f *Func, b *Block, in *Instr, preds map[*Block][]*Block) error {
	switch {
	case in.Op.IsBinary():
		if len(in.Args) != 2 {
			return fmt.Errorf("binary op needs 2 operands")
		}
		if in.Args[0].Type() != in.Args[1].Type() || in.Args[0].Type() != in.Ty {
			return fmt.Errorf("operand/result type mismatch")
		}
		isFP := in.Op == OpFAdd || in.Op == OpFSub || in.Op == OpFMul || in.Op == OpFDiv
		if isFP && !in.Ty.IsFloat() {
			return fmt.Errorf("fp op on non-float type %s", in.Ty)
		}
		if !isFP && !in.Ty.IsInteger() && !in.Ty.IsPtr() {
			return fmt.Errorf("integer op on type %s", in.Ty)
		}
	case in.Op == OpFMA:
		if len(in.Args) != 3 {
			return fmt.Errorf("fma needs 3 operands")
		}
		for _, a := range in.Args {
			if a.Type() != in.Ty {
				return fmt.Errorf("fma operand type mismatch")
			}
		}
		if !in.Ty.IsFloat() {
			return fmt.Errorf("fma on non-float type %s", in.Ty)
		}
	case in.Op == OpICmp || in.Op == OpFCmp:
		if len(in.Args) != 2 || in.Args[0].Type() != in.Args[1].Type() {
			return fmt.Errorf("cmp operand mismatch")
		}
		if in.Ty != I1 {
			return fmt.Errorf("cmp must produce i1")
		}
	case in.Op.IsConversion():
		if len(in.Args) != 1 {
			return fmt.Errorf("conversion needs 1 operand")
		}
	case in.Op == OpSplat:
		if len(in.Args) != 1 || !in.Ty.IsVector() || in.Args[0].Type() != in.Ty.Elem() {
			return fmt.Errorf("splat type mismatch")
		}
	case in.Op == OpExtract:
		if len(in.Args) != 1 {
			return fmt.Errorf("extract needs 1 operand")
		}
		v := in.Args[0].Type()
		if !v.IsVector() || in.Ty != v.Elem() {
			return fmt.Errorf("extract type mismatch")
		}
		if in.Lane < 0 || in.Lane >= v.Lanes {
			return fmt.Errorf("extract lane %d out of range", in.Lane)
		}
	case in.Op == OpReduce:
		if len(in.Args) != 1 {
			return fmt.Errorf("reduce needs 1 operand")
		}
		v := in.Args[0].Type()
		if !v.IsVector() || in.Ty != v.Elem() {
			return fmt.Errorf("reduce type mismatch")
		}
	case in.Op == OpAlloca:
		if len(in.Args) != 1 {
			return fmt.Errorf("alloca needs 1 operand")
		}
		if in.Ty != Ptr {
			return fmt.Errorf("alloca must produce ptr")
		}
	case in.Op == OpLoad:
		if len(in.Args) != 1 || !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("load through non-pointer")
		}
	case in.Op == OpStore:
		if len(in.Args) != 2 || !in.Args[1].Type().IsPtr() {
			return fmt.Errorf("store needs value, ptr")
		}
		if in.Ty != Void {
			return fmt.Errorf("store produces no value")
		}
	case in.Op == OpGEP:
		if len(in.Args) != 2 || !in.Args[0].Type().IsPtr() || !in.Args[1].Type().IsInteger() {
			return fmt.Errorf("gep needs ptr base and integer index")
		}
		if in.Ty != Ptr {
			return fmt.Errorf("gep must produce ptr")
		}
	case in.Op == OpPhi:
		if len(in.Args) == 0 || len(in.Args) != len(in.Blocks) {
			return fmt.Errorf("phi with %d values, %d blocks", len(in.Args), len(in.Blocks))
		}
		for _, v := range in.Args {
			if v.Type() != in.Ty {
				return fmt.Errorf("phi incoming type %s != %s", v.Type(), in.Ty)
			}
		}
		// Incoming blocks must be exactly the predecessors, as
		// multisets. Counting in place allocates nothing, which matters
		// because every artifact load verifies.
		want := preds[b]
		if len(want) != len(in.Blocks) {
			return fmt.Errorf("phi has %d incomings, block has %d preds", len(in.Blocks), len(want))
		}
		for _, p := range want {
			if countBlock(want, p) != countBlock(in.Blocks, p) {
				return fmt.Errorf("phi incoming blocks do not match predecessors")
			}
		}
	case in.Op == OpSelect:
		if len(in.Args) != 3 {
			return fmt.Errorf("select needs 3 operands")
		}
		if in.Args[0].Type() != I1 {
			return fmt.Errorf("select condition must be i1")
		}
		if in.Args[1].Type() != in.Ty || in.Args[2].Type() != in.Ty {
			return fmt.Errorf("select arm type mismatch")
		}
	case in.Op == OpCall:
		if in.Callee == nil {
			return fmt.Errorf("call without callee")
		}
		if in.Ty != in.Callee.RetTy {
			return fmt.Errorf("call result type %s != callee return %s", in.Ty, in.Callee.RetTy)
		}
		if len(in.Args) != len(in.Callee.Params) {
			return fmt.Errorf("call to @%s with %d args, want %d",
				in.Callee.FName, len(in.Args), len(in.Callee.Params))
		}
		for i, a := range in.Args {
			if a.Type() != in.Callee.Params[i].Ty {
				return fmt.Errorf("call arg %d type %s != param %s", i, a.Type(), in.Callee.Params[i].Ty)
			}
		}
	case in.Op == OpRet:
		if f.RetTy == Void {
			if len(in.Args) != 0 {
				return fmt.Errorf("void function returns a value")
			}
		} else {
			if len(in.Args) != 1 || in.Args[0].Type() != f.RetTy {
				return fmt.Errorf("return type mismatch")
			}
		}
	case in.Op == OpBr:
		if len(in.Blocks) != 1 {
			return fmt.Errorf("br needs 1 target")
		}
	case in.Op == OpCondBr:
		if len(in.Blocks) != 2 || len(in.Args) != 1 || in.Args[0].Type() != I1 {
			return fmt.Errorf("condbr needs i1 cond and 2 targets")
		}
	case in.Op == OpSwitch:
		if len(in.Blocks) < 1 || len(in.Cases) != len(in.Blocks)-1 {
			return fmt.Errorf("switch case/target mismatch")
		}
		if len(in.Args) != 1 || !in.Args[0].Type().IsInteger() {
			return fmt.Errorf("switch on non-integer")
		}
	default:
		return fmt.Errorf("unknown opcode %s", in.Op)
	}
	// All referenced blocks must belong to this function.
	for _, t := range in.Blocks {
		if t.fn != f {
			return fmt.Errorf("references block %s of another function", t.BName)
		}
	}
	return nil
}

func countBlock(bs []*Block, b *Block) int {
	n := 0
	for _, x := range bs {
		if x == b {
			n++
		}
	}
	return n
}
